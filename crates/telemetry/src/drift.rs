//! Online drift detection over the ledger's predicted-vs-measured join.
//!
//! PR 5's post-hoc study found the predictor goes out-of-distribution on
//! solo rounds (~103% |err|) while multi-way rounds match §5.2 (<10%).
//! This module makes that observation *online*: each scheduling round's
//! signed relative prediction error feeds a per-group-width detector that
//! flags an OOD regime while the run is still in flight.
//!
//! # Detector
//!
//! Classic Page–Hinkley adapts its reference mean from the stream itself,
//! which never alarms on a fault that is present from `t = 0` (the PR 4
//! predictor-bias plans bias the whole run; the solo-round OOD regime is a
//! property of the training distribution, not a mid-stream change). The
//! detectors here therefore run a one-sided Page–Hinkley-style CUSUM of the
//! *absolute* relative error against a **pinned healthy reference**
//! ([`DriftConfig::baseline_abs_err`], the §5.2 / PR 5 multi-way bound):
//!
//! ```text
//! cum    += |err| − baseline − delta      // drift slack delta
//! score   = cum − min(cum over the run)   // one-sided excursion
//! alarm when score > lambda (after a warm-up of min_samples rounds)
//! ```
//!
//! A healthy stream (|err| ≲ baseline) drives `cum` downward and the score
//! stays at 0; a level shift above `baseline + delta` grows the score
//! linearly and crosses `lambda` within a bounded number of rounds —
//! `lambda / (shift − baseline − delta)` rounds after onset, which is what
//! the EXPERIMENTS.md detection-latency tables measure.
//!
//! Alarms are latched: the first alarm per width class is the alert
//! (carrying the simulation clock), and the detector keeps accumulating
//! for score reporting without re-alerting.

use crate::sketch::WindowedMoments;

/// Group-width classes tracked independently: solo, 2-way, 3-way, ≥4-way.
pub const WIDTH_CLASSES: usize = 4;

/// Map a group width (entries in the round) to its detector class index.
pub fn width_class(width: usize) -> usize {
    width.clamp(1, WIDTH_CLASSES) - 1
}

/// Human-readable label of a width class.
pub fn width_class_label(class: usize) -> &'static str {
    match class {
        0 => "solo",
        1 => "2-way",
        2 => "3-way",
        _ => "4-way+",
    }
}

/// Drift-detector tuning. Defaults encode the repo's healthy-regime
/// findings: multi-way |err| sits under ~10% (§5.2 / PR 5), so the
/// reference is 0.10 with 0.05 slack — a regime must hold |err| above 15%
/// to accumulate at all, and the solo-round OOD regime (~103%) crosses
/// `lambda = 1.5` in `⌈1.5 / 0.88⌉ = 2` post-warm-up rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Pinned healthy reference for the absolute relative error.
    pub baseline_abs_err: f64,
    /// Page–Hinkley slack: drift below `baseline + delta` is tolerated.
    pub ph_delta: f64,
    /// Alarm threshold on the one-sided CUSUM score.
    pub ph_lambda: f64,
    /// EWMA smoothing factor for the reported error level.
    pub ewma_alpha: f64,
    /// Rounds a class must observe before it may alarm (warm-up).
    pub min_samples: usize,
    /// Window size for the reported windowed mean/std of the error.
    pub window: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            baseline_abs_err: 0.10,
            ph_delta: 0.05,
            ph_lambda: 1.5,
            ewma_alpha: 0.15,
            min_samples: 12,
            window: 64,
        }
    }
}

/// One width class's detector state.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassState {
    /// Rounds observed.
    pub samples: u64,
    /// EWMA of the absolute relative error (seeded with the first sample).
    pub ewma_abs: f64,
    /// EWMA of the signed relative error (bias direction).
    pub ewma_signed: f64,
    /// Windowed moments of the signed relative error.
    pub window: WindowedMoments,
    cum: f64,
    cum_min: f64,
    /// Simulation clock of the first alarm, if any (latched).
    pub alarmed_at_ms: Option<f64>,
}

impl ClassState {
    fn new(window: usize) -> Self {
        Self {
            samples: 0,
            ewma_abs: 0.0,
            ewma_signed: 0.0,
            window: WindowedMoments::new(window),
            cum: 0.0,
            cum_min: 0.0,
            alarmed_at_ms: None,
        }
    }

    /// Current one-sided CUSUM excursion score.
    pub fn score(&self) -> f64 {
        self.cum - self.cum_min
    }
}

/// A latched drift alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlarm {
    /// Width class that alarmed.
    pub class: usize,
    /// Simulation clock of the alarm, ms.
    pub at_ms: f64,
    /// CUSUM score at alarm time.
    pub score: f64,
    /// EWMA |err| at alarm time.
    pub ewma_abs: f64,
}

/// Per-group-width online drift detectors over prediction error.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    cfg: DriftConfig,
    classes: Vec<ClassState>,
}

impl DriftDetector {
    /// Detectors for every width class.
    pub fn new(cfg: DriftConfig) -> Self {
        let classes = (0..WIDTH_CLASSES)
            .map(|_| ClassState::new(cfg.window))
            .collect();
        Self { cfg, classes }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &DriftConfig {
        &self.cfg
    }

    /// State of one width class.
    pub fn class(&self, class: usize) -> &ClassState {
        &self.classes[class]
    }

    /// Feed one round's signed relative prediction error for a group of
    /// `width` queries at simulation time `at_ms`. Returns a latched alarm
    /// the first time the class's score crosses the threshold.
    pub fn observe(&mut self, width: usize, rel_error: f64, at_ms: f64) -> Option<DriftAlarm> {
        let class = width_class(width);
        let s = &mut self.classes[class];
        let abs = rel_error.abs();
        s.samples += 1;
        if s.samples == 1 {
            s.ewma_abs = abs;
            s.ewma_signed = rel_error;
        } else {
            let a = self.cfg.ewma_alpha;
            s.ewma_abs += a * (abs - s.ewma_abs);
            s.ewma_signed += a * (rel_error - s.ewma_signed);
        }
        s.window.push(rel_error);
        s.cum += abs - self.cfg.baseline_abs_err - self.cfg.ph_delta;
        if s.cum < s.cum_min {
            s.cum_min = s.cum;
        }
        let score = s.score();
        if s.alarmed_at_ms.is_none()
            && s.samples >= self.cfg.min_samples as u64
            && score > self.cfg.ph_lambda
        {
            s.alarmed_at_ms = Some(at_ms);
            return Some(DriftAlarm {
                class,
                at_ms,
                score,
                ewma_abs: s.ewma_abs,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_stream_never_alarms() {
        let mut d = DriftDetector::new(DriftConfig::default());
        for i in 0..500 {
            // Healthy multi-way regime: |err| oscillating under 10%.
            let err = if i % 2 == 0 { 0.06 } else { -0.08 };
            assert!(d.observe(2, err, i as f64).is_none());
        }
        assert_eq!(d.class(width_class(2)).alarmed_at_ms, None);
        assert!(d.class(width_class(2)).score() == 0.0);
    }

    #[test]
    fn level_shift_from_t0_alarms_after_warmup() {
        // The PR 5 solo-round OOD regime: ~103% |err| from the first round.
        let mut d = DriftDetector::new(DriftConfig::default());
        let mut alarm = None;
        for i in 0..40 {
            if let Some(a) = d.observe(1, 1.03, i as f64) {
                alarm = Some(a);
                break;
            }
        }
        let a = alarm.expect("solo OOD regime must alarm");
        // Warm-up dominates: alarm on the min_samples-th round.
        assert_eq!(a.at_ms, 11.0);
        assert_eq!(a.class, 0);
        assert!(a.ewma_abs > 0.9);
        // Latched: continuing the stream never re-alarms.
        for i in 40..80 {
            assert!(d.observe(1, 1.03, i as f64).is_none());
        }
        assert_eq!(d.class(0).alarmed_at_ms, Some(11.0));
    }

    #[test]
    fn mid_stream_shift_alarms_with_bounded_latency() {
        let mut d = DriftDetector::new(DriftConfig::default());
        for i in 0..100 {
            assert!(d.observe(2, 0.05, i as f64).is_none());
        }
        // Shift to 55% |err|: per-round increment 0.55-0.15 = 0.4 → alarm
        // within ceil(1.5/0.4) = 4 rounds of onset.
        let mut alarm = None;
        for i in 100..120 {
            if let Some(a) = d.observe(2, 0.55, i as f64) {
                alarm = Some(a);
                break;
            }
        }
        let a = alarm.expect("shift must alarm");
        assert!(a.at_ms <= 104.0, "detection latency too high: {}", a.at_ms);
    }

    #[test]
    fn sub_threshold_shift_stays_quiet() {
        // 14% |err| < baseline + delta = 15%: tolerated by design.
        let mut d = DriftDetector::new(DriftConfig::default());
        for i in 0..1000 {
            assert!(d.observe(3, 0.14, i as f64).is_none());
        }
    }

    #[test]
    fn classes_are_independent() {
        let mut d = DriftDetector::new(DriftConfig::default());
        for i in 0..30 {
            d.observe(1, 1.0, i as f64);
            assert!(d.observe(4, 0.02, i as f64).is_none());
            assert!(d.observe(7, 0.02, i as f64).is_none()); // same class as 4
        }
        assert!(d.class(0).alarmed_at_ms.is_some());
        assert_eq!(d.class(3).alarmed_at_ms, None);
        assert_eq!(width_class(7), 3);
        assert_eq!(width_class_label(0), "solo");
    }
}
