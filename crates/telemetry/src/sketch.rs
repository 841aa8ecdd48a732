//! Streaming accumulators for the run-health layer.
//!
//! The quantile sketch lives in `abacus_metrics` (so `ServiceStats` can
//! carry one without a dependency cycle); this module holds the
//! fixed-capacity windowed moment accumulator the drift detectors use for
//! windowed mean/std over recent prediction errors.

/// Fixed-capacity sliding window with deterministic mean/std.
///
/// A ring buffer over the last `cap` observations. Mean and standard
/// deviation are recomputed by iterating the window oldest → newest, so the
/// floating-point summation order is a pure function of the observation
/// stream — no incremental running-sum drift, bit-reproducible across
/// hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedMoments {
    buf: Vec<f64>,
    cap: usize,
    head: usize,
    len: usize,
}

impl WindowedMoments {
    /// A window keeping the last `cap` observations (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "window capacity must be at least 1");
        Self {
            buf: vec![0.0; cap],
            cap,
            head: 0,
            len: 0,
        }
    }

    /// Push one observation, evicting the oldest once full.
    pub fn push(&mut self, v: f64) {
        self.buf[self.head] = v;
        self.head = (self.head + 1) % self.cap;
        if self.len < self.cap {
            self.len += 1;
        }
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the window oldest → newest.
    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let start = (self.head + self.cap - self.len) % self.cap;
        (0..self.len).map(move |i| self.buf[(start + i) % self.cap])
    }

    /// Mean over the window (0 when empty), summed oldest → newest.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.iter().sum::<f64>() / self.len as f64
    }

    /// Population standard deviation over the window (0 when empty),
    /// matching `abacus_metrics::std_dev`'s convention.
    pub fn std(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.len as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest() {
        let mut w = WindowedMoments::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        // Window is [2, 3, 4].
        assert!((w.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn moments_match_metrics_stats() {
        let vals = [0.3, 1.7, -0.2, 5.5, 2.2];
        let mut w = WindowedMoments::new(8);
        for &v in &vals {
            w.push(v);
        }
        assert!((w.mean() - abacus_metrics::mean(&vals)).abs() < 1e-12);
        assert!((w.std() - abacus_metrics::std_dev(&vals)).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero() {
        let w = WindowedMoments::new(4);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std(), 0.0);
    }

    #[test]
    fn wrapped_window_sums_oldest_first() {
        // After wrapping, iteration order must still be oldest → newest:
        // feed values whose sum order matters in f64 and compare against a
        // straight-line reference.
        let mut w = WindowedMoments::new(4);
        let stream = [1e16, 1.0, -1e16, 2.0, 3.0, 4.0];
        for &v in &stream {
            w.push(v);
        }
        let window = &stream[stream.len() - 4..];
        let reference = window.iter().sum::<f64>() / 4.0;
        assert_eq!(w.mean(), reference);
    }
}
