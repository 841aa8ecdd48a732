//! Distribution samplers used across the evaluation.
//!
//! The paper's load generator draws query arrivals from a Poisson process
//! (exponential inter-arrival times), picks batch sizes / sequence lengths
//! uniformly from Table 1, and the GPU simulator applies lognormal
//! multiplicative noise to reproduce the latency determinism statistics of
//! §5.2. These samplers are implemented here rather than pulling in
//! `rand_distr` (see DESIGN.md §5).

use crate::rng::SeededRng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for Poisson-process inter-arrival times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create a sampler with the given rate (events per unit time).
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "rate must be positive");
        Self { lambda }
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draw one sample via inverse transform.
    #[inline]
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        // 1 - U in (0, 1] avoids ln(0).
        -(1.0 - rng.f64()).ln() / self.lambda
    }
}

/// Normal distribution `N(mean, std^2)` via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Create a sampler. `std` must be non-negative and finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "std must be non-negative");
        Self { mean, std }
    }

    /// Draw one sample.
    #[inline]
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        self.mean + self.std * rng.normal()
    }
}

/// Lognormal distribution: `exp(N(mu, sigma^2))`.
///
/// The GPU simulator uses `LogNormal::noise(sigma)` — a unit-median
/// multiplicative jitter — to model run-to-run latency variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be non-negative"
        );
        Self { mu, sigma }
    }

    /// Unit-median multiplicative noise with the given log-scale `sigma`.
    pub fn noise(sigma: f64) -> Self {
        Self::new(0.0, sigma)
    }

    /// Draw one sample.
    #[inline]
    pub fn sample(&self, rng: &mut SeededRng) -> f64 {
        (self.mu + self.sigma * rng.normal()).exp()
    }
}

/// Uniform choice over a fixed, non-empty set of values.
///
/// Models Table 1's input randomisation: batch size ∈ {4, 8, 16, 32} and
/// BERT sequence length ∈ {8, 16, 32, 64}.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformChoice<T: Copy> {
    values: Vec<T>,
}

impl<T: Copy> UniformChoice<T> {
    /// Create a chooser over `values`.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn new(values: impl Into<Vec<T>>) -> Self {
        let values = values.into();
        assert!(!values.is_empty(), "choice set must be non-empty");
        Self { values }
    }

    /// The underlying choice set.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Draw one value uniformly.
    #[inline]
    pub fn sample(&self, rng: &mut SeededRng) -> T {
        *rng.choose(&self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SeededRng::new(1);
        let d = Exponential::new(4.0);
        let samples: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let mean = mean_of(&samples);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = SeededRng::new(2);
        let d = Normal::new(10.0, 2.0);
        let samples: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let mean = mean_of(&samples);
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn lognormal_noise_has_unit_median() {
        let mut rng = SeededRng::new(3);
        let d = LogNormal::noise(0.04);
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.01, "median {median}");
        // 4% log-sigma means nearly all mass within ±20%.
        assert!(samples.iter().all(|&x| x > 0.8 && x < 1.25));
    }

    #[test]
    fn uniform_choice_hits_every_value() {
        let mut rng = SeededRng::new(4);
        let c = UniformChoice::new(vec![4u32, 8, 16, 32]);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            let v = c.sample(&mut rng);
            let idx = c.values().iter().position(|&x| x == v).unwrap();
            counts[idx] += 1;
        }
        for &n in &counts {
            assert!(n > 800, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_choice_panics() {
        let _ = UniformChoice::<u32>::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Exponential::new(0.0);
    }
}
