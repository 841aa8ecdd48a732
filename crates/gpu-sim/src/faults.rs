//! Deterministic kernel-level fault injection.
//!
//! A [`KernelFaultSpec`] describes a latency-spike regime: inside a chosen
//! window of cumulative GPU busy time, each kernel launch independently
//! draws from a forked SplitMix64 stream and, with probability `prob`, has
//! its (already noisy) solo duration multiplied by `factor`. The stream is
//! forked from `(spec seed, run seed)`, so the spikes a group experiences
//! depend only on the spec and the group's own run seed — bit-reproducible
//! across serial/parallel execution and across engine reuse, exactly like
//! the noise model.
//!
//! The spike draw uses a *separate* RNG from the engine's noise stream: an
//! installed spec with `prob = 0.0` leaves every duration — and the whole
//! run — bit-identical to an engine with no spec installed at all. When no
//! spec is installed the engine's hot path does not touch this module.

use workload::{fork_seed, SeededRng};

/// A deterministic kernel latency-spike regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFaultSpec {
    /// Base seed of the spike stream; forked with each run seed.
    pub seed: u64,
    /// Window start in cumulative busy time, ms (see [`crate::Engine::set_fault_time_base`]).
    pub window_start_ms: f64,
    /// Window end in cumulative busy time, ms (`f64::INFINITY` = always).
    pub window_end_ms: f64,
    /// Per-kernel spike probability in `[0, 1]`.
    pub prob: f64,
    /// Multiplier applied to a spiked kernel's solo duration (≥ 1 for a
    /// slowdown; values below 1 are allowed for what-if studies).
    pub factor: f64,
}

impl KernelFaultSpec {
    /// A spec that spikes every run, for the whole run.
    pub fn always(seed: u64, prob: f64, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be finite and positive"
        );
        Self {
            seed,
            window_start_ms: 0.0,
            window_end_ms: f64::INFINITY,
            prob,
            factor,
        }
    }
}

/// Per-run spike state held by the engine: the spec plus the forked draw
/// stream and the cumulative-time base of the current run.
#[derive(Debug, Clone)]
pub(crate) struct KernelFaultState {
    pub(crate) spec: KernelFaultSpec,
    rng: SeededRng,
    /// Cumulative busy time at this run's `t = 0` (set by the executor so
    /// the window refers to serving-wide time, not group-local time).
    base_ms: f64,
}

impl KernelFaultState {
    pub(crate) fn new(spec: KernelFaultSpec, run_seed: u64) -> Self {
        Self {
            spec,
            rng: SeededRng::new(fork_seed(spec.seed, run_seed)),
            base_ms: 0.0,
        }
    }

    /// Re-derive the draw stream for a new run, keeping the time base.
    pub(crate) fn reseed(&mut self, run_seed: u64) {
        self.rng = SeededRng::new(fork_seed(self.spec.seed, run_seed));
    }

    pub(crate) fn set_base_ms(&mut self, base_ms: f64) {
        self.base_ms = base_ms;
    }

    /// Multiplier for a kernel starting at engine-local time `now_ms`.
    ///
    /// One draw per kernel launch, unconditionally, so the stream position
    /// does not depend on where the window lies.
    pub(crate) fn spike_factor(&mut self, now_ms: f64) -> f64 {
        let u = self.rng.f64();
        let t = self.base_ms + now_ms;
        if u < self.spec.prob && t >= self.spec.window_start_ms && t < self.spec.window_end_ms {
            self.spec.factor
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_prob_never_spikes() {
        let mut st = KernelFaultState::new(KernelFaultSpec::always(7, 0.0, 3.0), 1);
        for i in 0..1000 {
            assert_eq!(st.spike_factor(i as f64), 1.0);
        }
    }

    #[test]
    fn unit_prob_always_spikes_in_window() {
        let mut st = KernelFaultState::new(KernelFaultSpec::always(7, 1.0, 3.0), 1);
        assert_eq!(st.spike_factor(0.0), 3.0);
        assert_eq!(st.spike_factor(1e9), 3.0);
    }

    #[test]
    fn window_gates_spikes_but_not_stream_position() {
        let spec = KernelFaultSpec {
            seed: 9,
            window_start_ms: 10.0,
            window_end_ms: 20.0,
            prob: 1.0,
            factor: 2.0,
        };
        let mut st = KernelFaultState::new(spec, 4);
        assert_eq!(st.spike_factor(5.0), 1.0); // before window
        assert_eq!(st.spike_factor(15.0), 2.0); // inside
        assert_eq!(st.spike_factor(25.0), 1.0); // after

        // The base shifts group-local time into the window.
        st.set_base_ms(12.0);
        assert_eq!(st.spike_factor(3.0), 2.0);
    }

    #[test]
    fn reseed_reproduces_draw_sequence() {
        let spec = KernelFaultSpec::always(42, 0.5, 4.0);
        let mut a = KernelFaultState::new(spec, 11);
        let first: Vec<f64> = (0..64).map(|i| a.spike_factor(i as f64)).collect();
        a.reseed(11);
        let again: Vec<f64> = (0..64).map(|i| a.spike_factor(i as f64)).collect();
        assert_eq!(first, again);
        assert!(first.contains(&4.0) && first.contains(&1.0));
    }
}
