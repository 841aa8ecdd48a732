//! Run-to-run latency jitter.
//!
//! §5.2 of the paper measures 42 000 operator groups 100 times each and
//! finds the standard deviation of a group's latency is ≈ 4.5% of its mean
//! (0.65 ms on a 15.9 ms average). Real sources are clock/thermal state
//! (correlated across all kernels of a run) and per-kernel scheduling
//! jitter. [`NoiseModel`] reproduces both: one lognormal *session* factor
//! applied to every kernel of a run, plus a smaller independent per-kernel
//! factor. The predictor crate never sees these internals — the noise is
//! exactly the irreducible error floor its MLP trains against.

use workload::{LogNormal, SeededRng};

/// Multiplicative latency noise: duration × session_factor × kernel_factor.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Log-sigma of the per-run (session) factor, shared by every kernel in
    /// the run.
    pub session_sigma: f64,
    /// Log-sigma of the independent per-kernel factor.
    pub kernel_sigma: f64,
}

impl NoiseModel {
    /// Calibrated default: ≈ 4% group-level std/mean, matching §5.2.
    pub fn calibrated() -> Self {
        Self {
            session_sigma: 0.038,
            kernel_sigma: 0.015,
        }
    }

    /// No noise at all — useful for analytically checking the engine and
    /// for "expected latency" queries.
    pub fn disabled() -> Self {
        Self {
            session_sigma: 0.0,
            kernel_sigma: 0.0,
        }
    }

    /// True when both components are zero.
    pub fn is_disabled(&self) -> bool {
        self.session_sigma == 0.0 && self.kernel_sigma == 0.0
    }

    /// Draw the session factor for one run.
    pub fn session_factor(&self, rng: &mut SeededRng) -> f64 {
        if self.session_sigma == 0.0 {
            1.0
        } else {
            LogNormal::noise(self.session_sigma).sample(rng)
        }
    }

    /// Draw an independent per-kernel factor.
    pub fn kernel_factor(&self, rng: &mut SeededRng) -> f64 {
        if self.kernel_sigma == 0.0 {
            1.0
        } else {
            LogNormal::noise(self.kernel_sigma).sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noise_is_unit() {
        let n = NoiseModel::disabled();
        let mut rng = SeededRng::new(0);
        assert!(n.is_disabled());
        assert_eq!(n.session_factor(&mut rng), 1.0);
        assert_eq!(n.kernel_factor(&mut rng), 1.0);
    }

    #[test]
    fn calibrated_noise_magnitude() {
        let n = NoiseModel::calibrated();
        let mut rng = SeededRng::new(1);
        let samples: Vec<f64> = (0..10_000).map(|_| n.session_factor(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        // Session std/mean close to session_sigma for small sigma.
        assert!((std / mean - 0.038).abs() < 0.005, "cv {}", std / mean);
        assert!((mean - 1.0).abs() < 0.01);
    }

    #[test]
    fn factors_are_positive() {
        let n = NoiseModel::calibrated();
        let mut rng = SeededRng::new(2);
        for _ in 0..1000 {
            assert!(n.session_factor(&mut rng) > 0.0);
            assert!(n.kernel_factor(&mut rng) > 0.0);
        }
    }
}
