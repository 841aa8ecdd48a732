//! Split-conformal calibration of the quantile certification heads
//! (DESIGN.md §14).
//!
//! The p90/p95/p99 heads of a [`QuantileMlp`] are point estimates with no
//! finite-sample guarantee — and the PR 5 width-split study showed exactly
//! where they would inherit the mean model's blind spot: solo rounds are
//! out-of-distribution for the §5.4 instance sampler (~103% |err|), so a
//! head trained mostly on multi-way groups under-covers them. Split
//! conformal fixes both problems at once: on a held-out calibration slice
//! the residual scores `s_i = y_i − q̂(x_i)` are ranked and the
//! `⌈(n+1)·τ⌉`-th smallest becomes an additive correction, which makes
//! `q̂(x) + c` cover a fresh exchangeable sample with probability ≥ τ.
//! Scores are stratified by *group width* (the number of co-located
//! services, read off the feature vector's multi-hot presence bits), so a
//! stratum the sampler under-covers — solo rounds — earns its correction
//! from its own, wider, residual distribution instead of being averaged
//! away by the well-covered multi-way mass.
//!
//! [`ConformalModel`] packages the heads plus the calibration table behind
//! [`LatencyModel`], returning the calibrated upper bound at one chosen
//! level — the drop-in certifier `AbacusScheduler` plans against in
//! conformal mode.

use crate::dataset::Dataset;
use crate::features::{MAX_COLOCATED, MODEL_SLOT_BASE};
use crate::mlp::QuantileMlp;
use crate::LatencyModel;

/// Quantile levels of the certification heads (p90/p95/p99).
pub const CERT_TAUS: [f64; 3] = [0.90, 0.95, 0.99];

/// Minimum calibration points for a width stratum to earn its own
/// corrections; thinner strata fall back to the pooled (all-widths) table
/// rather than trusting a quantile of a handful of scores.
const MIN_STRATUM: usize = 20;

/// Group width of one Fig. 8 feature row: the number of set presence bits
/// in the multi-hot model bitmap, clamped to `1..=MAX_COLOCATED`. Rows
/// shorter than the bitmap (synthetic test datasets) collapse into the
/// width-1 stratum.
pub fn width_of_row(x: &[f64]) -> usize {
    let bits = x.len().min(MODEL_SLOT_BASE);
    let w = x[..bits].iter().filter(|&&v| v > 0.5).count();
    w.clamp(1, MAX_COLOCATED)
}

/// The split-conformal rank: index (1-based) of the score that upper-bounds
/// a fresh sample with probability ≥ `tau` given `n` calibration scores,
/// clamped to `n` (a stratum too small for its level keeps the max score
/// rather than an infinite bound; [`MIN_STRATUM`] keeps this rare).
fn conformal_rank(n: usize, tau: f64) -> usize {
    (((n + 1) as f64 * tau).ceil() as usize).clamp(1, n)
}

/// Per-width-stratum split-conformal correction table for a set of
/// quantile heads. Pure calibration math — the coverage property tests
/// drive this directly on synthetic scores, independent of any network.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedConformal {
    /// Quantile level per head, ascending (mirrors the heads' `taus`).
    taus: Vec<f64>,
    /// `corrections[s][h]`: additive correction for group width `s + 1`,
    /// head `h`. Strata below [`MIN_STRATUM`] hold the pooled row.
    corrections: Vec<Vec<f64>>,
    /// Calibration points per width stratum.
    counts: Vec<usize>,
    /// Corrections over the pooled calibration slice (all widths).
    pooled: Vec<f64>,
}

impl StratifiedConformal {
    /// Calibrate from raw scores: `widths[i]` is sample `i`'s group width
    /// and `scores[i * n_heads + h]` its residual `y_i − q̂_h(x_i)`.
    /// Deterministic: scores sort by `total_cmp`, ties keep no state.
    ///
    /// # Panics
    /// Panics on empty input or mismatched lengths.
    pub fn from_scores(taus: &[f64], widths: &[usize], scores: &[f64]) -> StratifiedConformal {
        let n_heads = taus.len();
        assert!(n_heads > 0, "need at least one head");
        assert!(!widths.is_empty(), "cannot calibrate on an empty slice");
        assert_eq!(
            scores.len(),
            widths.len() * n_heads,
            "one score per sample per head"
        );
        let quantiles = |rows: &[usize]| -> Vec<f64> {
            let mut col: Vec<f64> = Vec::with_capacity(rows.len());
            taus.iter()
                .enumerate()
                .map(|(h, &tau)| {
                    col.clear();
                    col.extend(rows.iter().map(|&r| scores[r * n_heads + h]));
                    col.sort_by(|a, b| a.total_cmp(b));
                    col[conformal_rank(col.len(), tau) - 1]
                })
                .collect()
        };
        let all_rows: Vec<usize> = (0..widths.len()).collect();
        let pooled = quantiles(&all_rows);
        let mut counts = Vec::with_capacity(MAX_COLOCATED);
        let mut corrections = Vec::with_capacity(MAX_COLOCATED);
        for w in 1..=MAX_COLOCATED {
            let rows: Vec<usize> = (0..widths.len())
                .filter(|&r| widths[r].clamp(1, MAX_COLOCATED) == w)
                .collect();
            counts.push(rows.len());
            corrections.push(if rows.len() >= MIN_STRATUM {
                quantiles(&rows)
            } else {
                pooled.clone()
            });
        }
        StratifiedConformal {
            taus: taus.to_vec(),
            corrections,
            counts,
            pooled,
        }
    }

    /// Calibrate `heads` on a held-out slice: scores are the residuals of
    /// each head's (monotone-rearranged) prediction, stratified by each
    /// row's group width.
    pub fn fit(heads: &QuantileMlp, calib: &Dataset) -> StratifiedConformal {
        assert!(!calib.is_empty(), "cannot calibrate on an empty slice");
        let n = calib.len();
        let n_heads = heads.n_heads();
        let mut xs = Vec::with_capacity(n * calib.dim());
        for x in &calib.x {
            xs.extend_from_slice(x);
        }
        let mut preds = Vec::with_capacity(n * n_heads);
        heads.predict_quantiles_into(&xs, n, &mut preds);
        let widths: Vec<usize> = calib.x.iter().map(|x| width_of_row(x)).collect();
        let mut scores = Vec::with_capacity(n * n_heads);
        for r in 0..n {
            let y = calib.y[r];
            for &q in &preds[r * n_heads..(r + 1) * n_heads] {
                scores.push(y - q);
            }
        }
        StratifiedConformal::from_scores(heads.taus(), &widths, &scores)
    }

    /// The heads' quantile levels, ascending.
    pub fn taus(&self) -> &[f64] {
        &self.taus
    }

    /// Additive correction for group width `width` (clamped), head `head`.
    pub fn correction(&self, width: usize, head: usize) -> f64 {
        self.corrections[width.clamp(1, MAX_COLOCATED) - 1][head]
    }

    /// Calibration points in the stratum for `width`.
    pub fn stratum_count(&self, width: usize) -> usize {
        self.counts[width.clamp(1, MAX_COLOCATED) - 1]
    }

    /// Pooled (all-widths) correction for `head`.
    pub fn pooled_correction(&self, head: usize) -> f64 {
        self.pooled[head]
    }

    /// Rebuild from persisted parts (see `persist`).
    pub fn from_parts(
        taus: Vec<f64>,
        counts: Vec<usize>,
        corrections: Vec<Vec<f64>>,
        pooled: Vec<f64>,
    ) -> Result<StratifiedConformal, String> {
        if taus.is_empty() {
            return Err("no heads".into());
        }
        if counts.len() != MAX_COLOCATED || corrections.len() != MAX_COLOCATED {
            return Err("stratum table has wrong width count".into());
        }
        if pooled.len() != taus.len() || corrections.iter().any(|c| c.len() != taus.len()) {
            return Err("correction row width does not match head count".into());
        }
        Ok(StratifiedConformal {
            taus,
            corrections,
            counts,
            pooled,
        })
    }
}

thread_local! {
    /// Per-thread scratch for the heads' raw quantiles inside the batched
    /// upper-bound entry points (keeps them allocation-free once warm,
    /// like the mean model's workspace).
    static QUANTILE_SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Quantile heads plus their split-conformal calibration table, exposed as
/// a [`LatencyModel`] that predicts the **calibrated upper bound** at one
/// chosen level — the certifier the scheduler's Eq. 2 feasibility check
/// consumes in conformal mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformalModel {
    heads: QuantileMlp,
    conf: StratifiedConformal,
    /// Head index the [`LatencyModel`] entry points certify at.
    cert_head: usize,
}

impl ConformalModel {
    /// Calibrate `heads` on the held-out `calib` slice and certify at
    /// miscoverage `alpha` (the head whose level is closest to
    /// `1 − alpha`).
    pub fn calibrate(heads: QuantileMlp, calib: &Dataset, alpha: f64) -> ConformalModel {
        let conf = StratifiedConformal::fit(&heads, calib);
        let cert_head = head_for_alpha(heads.taus(), alpha);
        ConformalModel {
            heads,
            conf,
            cert_head,
        }
    }

    /// Reassemble from persisted parts.
    pub fn from_parts(
        heads: QuantileMlp,
        conf: StratifiedConformal,
        alpha: f64,
    ) -> Result<ConformalModel, String> {
        if heads.taus() != conf.taus() {
            return Err("head levels do not match calibration table".into());
        }
        let cert_head = head_for_alpha(heads.taus(), alpha);
        Ok(ConformalModel {
            heads,
            conf,
            cert_head,
        })
    }

    /// The same model certifying at a different miscoverage level (shares
    /// the heads and calibration table; only the certified head changes).
    pub fn with_alpha(&self, alpha: f64) -> ConformalModel {
        ConformalModel {
            heads: self.heads.clone(),
            conf: self.conf.clone(),
            cert_head: head_for_alpha(self.heads.taus(), alpha),
        }
    }

    /// Miscoverage level of the certified head (`1 − τ`).
    pub fn alpha(&self) -> f64 {
        1.0 - self.heads.taus()[self.cert_head]
    }

    /// The underlying quantile heads.
    pub fn heads(&self) -> &QuantileMlp {
        &self.heads
    }

    /// The calibration table.
    pub fn conformal(&self) -> &StratifiedConformal {
        &self.conf
    }

    /// Batched certified upper bounds at the configured level: `n` feature
    /// rows packed in `xs`, one bound per row appended to `out` (cleared
    /// first). One heads forward per call; corrections are a table lookup
    /// per row. Bounds are monotone in the head level (running max across
    /// calibrated heads) and clamped non-negative.
    pub fn predict_upper_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        out.clear();
        if n == 0 {
            assert!(xs.is_empty(), "rows supplied but n == 0");
            return;
        }
        let h = self.heads.n_heads();
        let dim = xs.len() / n;
        QUANTILE_SCRATCH.with(|cell| {
            let q = &mut *cell.borrow_mut();
            self.heads.predict_quantiles_into(xs, n, q);
            out.reserve(n);
            for r in 0..n {
                let width = width_of_row(&xs[r * dim..(r + 1) * dim]);
                let mut hi = f64::NEG_INFINITY;
                for head in 0..=self.cert_head {
                    let u = (q[r * h + head] + self.conf.correction(width, head)).max(0.0);
                    hi = hi.max(u);
                }
                out.push(hi);
            }
        });
    }

    /// Calibrated upper bounds for **every** head of one feature row,
    /// monotone in the level (running max) and clamped non-negative.
    pub fn upper_bounds_one(&self, x: &[f64]) -> Vec<f64> {
        let h = self.heads.n_heads();
        let q = self.heads.predict_quantiles_one(x);
        let width = width_of_row(x);
        let mut out = Vec::with_capacity(h);
        let mut hi = f64::NEG_INFINITY;
        for (head, &raw) in q.iter().enumerate() {
            let u = (raw + self.conf.correction(width, head)).max(0.0);
            hi = hi.max(u);
            out.push(hi);
        }
        out
    }
}

/// The head whose level is closest to `1 − alpha`.
fn head_for_alpha(taus: &[f64], alpha: f64) -> usize {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha {alpha} outside (0, 1)");
    let target = 1.0 - alpha;
    let mut best = 0;
    let mut best_gap = f64::INFINITY;
    for (h, &tau) in taus.iter().enumerate() {
        let gap = (tau - target).abs();
        if gap < best_gap {
            best_gap = gap;
            best = h;
        }
    }
    best
}

impl LatencyModel for ConformalModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.upper_bounds_one(x)[self.cert_head]
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.predict_upper_into(xs, n, out);
    }

    fn name(&self) -> &'static str {
        "conformal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;
    use proptest::prelude::*;
    use workload::SeededRng;

    #[test]
    fn conformal_rank_matches_textbook() {
        // n = 19, tau = 0.95: ceil(20 * 0.95) = 19.
        assert_eq!(conformal_rank(19, 0.95), 19);
        // Clamped when the level needs more points than the slice has.
        assert_eq!(conformal_rank(5, 0.99), 5);
        assert_eq!(conformal_rank(1, 0.5), 1);
    }

    #[test]
    fn width_reads_presence_bits() {
        let mut x = vec![0.0; MODEL_SLOT_BASE + 16];
        assert_eq!(width_of_row(&x), 1);
        x[0] = 1.0;
        assert_eq!(width_of_row(&x), 1);
        x[3] = 1.0;
        x[5] = 1.0;
        assert_eq!(width_of_row(&x), 3);
        // Short synthetic rows collapse to the solo stratum.
        assert_eq!(width_of_row(&[0.7]), 1);
    }

    #[test]
    fn thin_strata_fall_back_to_pooled() {
        // 100 width-2 samples, 3 width-1 samples: the solo stratum is too
        // thin to calibrate alone and must reuse the pooled corrections.
        let mut rng = SeededRng::new(7);
        let mut widths = Vec::new();
        let mut scores = Vec::new();
        for i in 0..103 {
            widths.push(if i < 3 { 1 } else { 2 });
            // The thin stratum's scores sit far above the fat one's, so its
            // own quantile would differ from the pooled one if it were
            // (wrongly) trusted.
            scores.push(if i < 3 {
                100.0 + rng.normal()
            } else {
                rng.normal()
            });
        }
        let conf = StratifiedConformal::from_scores(&[0.95], &widths, &scores);
        assert_eq!(conf.stratum_count(1), 3);
        assert_eq!(conf.correction(1, 0), conf.pooled_correction(0));
        assert_ne!(conf.correction(2, 0), conf.pooled_correction(0));
    }

    #[test]
    fn wider_residuals_earn_wider_corrections() {
        // Solo scores 4× more dispersed than multi-way scores — the solo
        // stratum's correction must come out larger (the OOD motivation).
        let mut rng = SeededRng::new(11);
        let mut widths = Vec::new();
        let mut scores = Vec::new();
        for _ in 0..400 {
            let solo = 4.0 * rng.normal();
            widths.push(1);
            scores.extend_from_slice(&[solo, solo]);
            let multi = rng.normal();
            widths.push(3);
            scores.extend_from_slice(&[multi, multi]);
        }
        let conf = StratifiedConformal::from_scores(&[0.9, 0.95], &widths, &scores);
        for h in 0..2 {
            assert!(
                conf.correction(1, h) > conf.correction(3, h),
                "head {h}: solo {} vs multi {}",
                conf.correction(1, h),
                conf.correction(3, h)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Split-conformal coverage: calibrating the p95 correction on one
        /// slice of exchangeable scores covers a held-out slice at ~95%,
        /// within a finite-sample tolerance band — and the corrections are
        /// monotone in the level (p90 ≤ p95 ≤ p99 quantiles of one score
        /// distribution).
        #[test]
        fn coverage_lands_in_tolerance_band(
            seed in 0u64..512,
            n_calib in 500usize..900,
            n_test in 1000usize..1500,
            scale in 0.5f64..20.0,
            shift in -5.0f64..5.0,
        ) {
            let mut rng = SeededRng::new(seed);
            let taus = [0.90, 0.95, 0.99];
            let mut widths = Vec::with_capacity(n_calib);
            let mut scores = Vec::with_capacity(n_calib * 3);
            for _ in 0..n_calib {
                widths.push(1 + (rng.f64() * 4.0) as usize);
                let s = shift + scale * rng.normal();
                // Same underlying score for every head — the heads of a
                // real model differ, but the correction math only sees one
                // column at a time.
                scores.extend_from_slice(&[s, s, s]);
            }
            let conf = StratifiedConformal::from_scores(&taus, &widths, &scores);
            // Monotone in the level, per stratum and pooled.
            for w in 1..=MAX_COLOCATED {
                prop_assert!(conf.correction(w, 0) <= conf.correction(w, 1));
                prop_assert!(conf.correction(w, 1) <= conf.correction(w, 2));
            }
            prop_assert!(conf.pooled_correction(0) <= conf.pooled_correction(1));
            // Held-out coverage of the p95 correction, per sampled width.
            let mut covered = 0usize;
            for _ in 0..n_test {
                let w = 1 + (rng.f64() * 4.0) as usize;
                let s = shift + scale * rng.normal();
                if s <= conf.correction(w, 1) {
                    covered += 1;
                }
            }
            let frac = covered as f64 / n_test as f64;
            prop_assert!(
                (0.905..=0.995).contains(&frac),
                "p95 coverage {} outside tolerance band",
                frac
            );
        }
    }

    /// End-to-end: train heads on synthetic noisy data, calibrate on a
    /// held-out slice, check held-out coverage of the certified p95 bound
    /// and monotonicity of the calibrated bounds across alphas.
    #[test]
    fn calibrated_model_covers_held_out_slice() {
        let mut rng = SeededRng::new(21);
        let mut d = Dataset::new();
        for _ in 0..4000 {
            let x = rng.f64();
            let y = 20.0 + 10.0 * x + (1.0 + 2.0 * x) * rng.normal();
            d.push(vec![x], y.max(0.1));
        }
        let mut split_rng = SeededRng::new(5);
        let (fit, rest) = d.split(0.5, &mut split_rng);
        let (calib, test) = rest.split(0.5, &mut split_rng);
        let heads = QuantileMlp::train(
            &fit,
            &MlpConfig {
                epochs: 40,
                ..MlpConfig::default()
            },
            &CERT_TAUS,
        );
        let model = ConformalModel::calibrate(heads, &calib, 0.05);
        assert_eq!(model.alpha(), 1.0 - 0.95);
        let covered = test
            .x
            .iter()
            .zip(&test.y)
            .filter(|(x, &y)| model.predict_one(x) >= y)
            .count();
        let frac = covered as f64 / test.len() as f64;
        assert!((0.90..=1.0).contains(&frac), "p95 coverage {frac}");
        // Calibrated bounds are monotone in the level.
        for i in 0..20 {
            let x = [i as f64 / 20.0];
            let b = model.upper_bounds_one(&x);
            assert!(b[0] <= b[1] && b[1] <= b[2], "bounds {b:?}");
            assert_eq!(model.with_alpha(0.10).predict_one(&x), b[0]);
            assert_eq!(model.with_alpha(0.05).predict_one(&x), b[1]);
            assert_eq!(model.with_alpha(0.01).predict_one(&x), b[2]);
        }
        // The batched entry point matches the scalar path.
        let xs: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let mut out = Vec::new();
        model.predict_upper_into(&xs, 16, &mut out);
        for (i, &u) in out.iter().enumerate() {
            assert_eq!(u, model.predict_one(&[i as f64 / 16.0]));
        }
    }
}
