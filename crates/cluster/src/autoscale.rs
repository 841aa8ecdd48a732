//! Cluster autoscaling sketch — the paper's §7.9 future-work direction.
//!
//! "Based on the experiment results, Abacus can be extended to determine
//! whether to scale out or up": a node whose GPUs still have overlap
//! headroom benefits from *scaling up* (denser co-location on the same
//! hardware), while a node whose operator groups already saturate the GPU
//! benefits from *scaling out* (more nodes). This module implements that
//! decision rule from the signals an Abacus node already produces: QoS
//! violation ratio and the measured overlap gain of its operator groups.
//!
//! [`PredictiveAutoscaler`] is the routed-cluster counterpart: instead of
//! reacting to violation ratios after the fact, it reads the *known* MAF
//! diurnal [`RateTrace`] a little ahead of the clock and sizes the active
//! GPU set so the predicted offered load lands at a target utilisation —
//! capacity is provisioned before the ramp arrives, not after the queue
//! melts.

use workload::RateTrace;

/// Signals sampled from one serving node over a control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSignals {
    /// Fraction of wall time the GPU was executing groups, in `[0, 1]`.
    pub busy_fraction: f64,
    /// QoS violation ratio over the window, in `[0, 1]`.
    pub violation_ratio: f64,
    /// Mean ratio of (sum of member queries' solo time) / (group duration)
    /// over executed groups: 1.0 = no overlap benefit, 2.0 = perfect
    /// pair-wise overlap.
    pub overlap_gain: f64,
}

/// The autoscaler's recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Capacity is fine; no change.
    Hold,
    /// Co-locate more services on the existing GPUs (scale up density):
    /// the node still extracts overlap headroom from its groups.
    ScaleUp,
    /// Add nodes (scale out): groups already saturate the hardware, so
    /// denser co-location would only time-share.
    ScaleOut,
    /// Load is so low the deployment can shed nodes.
    ScaleIn,
}

/// Thresholds for the decision rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Violation ratio above which capacity must grow.
    pub violation_high: f64,
    /// Busy fraction below which nodes can be shed.
    pub busy_low: f64,
    /// Overlap gain above which co-location still pays (scale up rather
    /// than out).
    pub overlap_gain_useful: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            violation_high: 0.02,
            busy_low: 0.30,
            overlap_gain_useful: 1.25,
        }
    }
}

impl AutoscalePolicy {
    /// Decide for one node.
    pub fn decide(&self, s: &NodeSignals) -> ScaleDecision {
        assert!((0.0..=1.0).contains(&s.busy_fraction), "busy out of range");
        assert!(
            (0.0..=1.0).contains(&s.violation_ratio),
            "violations out of range"
        );
        assert!(s.overlap_gain >= 0.0);
        if s.violation_ratio > self.violation_high {
            if s.overlap_gain >= self.overlap_gain_useful {
                // Groups still overlap well: denser co-location adds
                // effective capacity without new hardware.
                ScaleDecision::ScaleUp
            } else {
                // Saturated kernels (VGG-like): only more GPUs help.
                ScaleDecision::ScaleOut
            }
        } else if s.busy_fraction < self.busy_low {
            ScaleDecision::ScaleIn
        } else {
            ScaleDecision::Hold
        }
    }

    /// Decide for a fleet: scale out/up if *any* node needs it, scale in
    /// only when *all* nodes are idle enough.
    pub fn decide_fleet(&self, nodes: &[NodeSignals]) -> ScaleDecision {
        assert!(!nodes.is_empty());
        let mut decisions: Vec<ScaleDecision> = nodes.iter().map(|n| self.decide(n)).collect();
        if decisions.contains(&ScaleDecision::ScaleOut) {
            return ScaleDecision::ScaleOut;
        }
        if decisions.contains(&ScaleDecision::ScaleUp) {
            return ScaleDecision::ScaleUp;
        }
        if decisions.iter().all(|d| *d == ScaleDecision::ScaleIn) {
            return ScaleDecision::ScaleIn;
        }
        decisions.clear();
        ScaleDecision::Hold
    }
}

/// Predictive GPU-count sizing from a known offered-load timeline.
///
/// The routed cluster simulation ticks this once per routing epoch: the
/// scaler looks `lead_ms` ahead in the trace, converts the predicted
/// aggregate rate into reference-GPU equivalents, and the simulation
/// activates the cheapest prefix of its (derate-sorted) GPU priority
/// order whose summed capacity covers the demand. Deactivated GPUs drain
/// their queues but receive no new routes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveAutoscaler {
    /// Queries/sec one reference-derate (1.0×) GPU sustains at QoS.
    pub capacity_qps_per_gpu: f64,
    /// Plan so predicted load sits at this fraction of active capacity.
    pub target_utilization: f64,
    /// How far ahead of the clock to read the trace, ms.
    pub lead_ms: f64,
    /// Never deactivate below this many GPUs.
    pub min_gpus: usize,
}

impl PredictiveAutoscaler {
    /// Conservative defaults: size for 70% utilisation one minute ahead.
    pub fn new(capacity_qps_per_gpu: f64, min_gpus: usize) -> Self {
        assert!(
            capacity_qps_per_gpu.is_finite() && capacity_qps_per_gpu > 0.0,
            "per-GPU capacity must be positive"
        );
        Self {
            capacity_qps_per_gpu,
            target_utilization: 0.7,
            lead_ms: 60_000.0,
            min_gpus: min_gpus.max(1),
        }
    }

    /// Reference-GPU equivalents needed to carry the trace's predicted
    /// rate at `now_ms + lead_ms` (clamped to the trace horizon) at the
    /// target utilisation. Fractional: the caller rounds up by activating
    /// GPUs until the summed capacity covers it.
    pub fn needed_capacity(&self, trace: &RateTrace, now_ms: f64) -> f64 {
        if trace.buckets() == 0 {
            return self.min_gpus as f64;
        }
        let predicted_qps = trace.qps_at_ms(now_ms + self.lead_ms);
        predicted_qps / (self.capacity_qps_per_gpu * self.target_utilization)
    }
}

/// What the predictive autoscaler did over one routed-cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AutoscaleStats {
    /// GPU activations (0 when no autoscaler ran).
    pub up_events: u64,
    /// GPU deactivations.
    pub down_events: u64,
    /// Active GPUs averaged over routing epochs (fleet size when no
    /// autoscaler ran).
    pub mean_active_gpus: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(busy: f64, viol: f64, gain: f64) -> NodeSignals {
        NodeSignals {
            busy_fraction: busy,
            violation_ratio: viol,
            overlap_gain: gain,
        }
    }

    #[test]
    fn overloaded_with_overlap_headroom_scales_up() {
        let p = AutoscalePolicy::default();
        assert_eq!(p.decide(&signals(0.95, 0.10, 1.6)), ScaleDecision::ScaleUp);
    }

    #[test]
    fn overloaded_saturated_scales_out() {
        let p = AutoscalePolicy::default();
        // VGG-like: overlap gain ~1 — co-location only time-shares.
        assert_eq!(
            p.decide(&signals(0.98, 0.10, 1.02)),
            ScaleDecision::ScaleOut
        );
    }

    #[test]
    fn idle_scales_in_and_nominal_holds() {
        let p = AutoscalePolicy::default();
        assert_eq!(p.decide(&signals(0.10, 0.0, 1.5)), ScaleDecision::ScaleIn);
        assert_eq!(p.decide(&signals(0.70, 0.01, 1.5)), ScaleDecision::Hold);
    }

    #[test]
    fn fleet_priorities() {
        let p = AutoscalePolicy::default();
        let out = signals(0.99, 0.2, 1.0);
        let up = signals(0.9, 0.2, 1.5);
        let idle = signals(0.1, 0.0, 1.5);
        let hold = signals(0.6, 0.0, 1.5);
        assert_eq!(p.decide_fleet(&[up, out, hold]), ScaleDecision::ScaleOut);
        assert_eq!(p.decide_fleet(&[up, hold]), ScaleDecision::ScaleUp);
        assert_eq!(p.decide_fleet(&[idle, idle]), ScaleDecision::ScaleIn);
        assert_eq!(p.decide_fleet(&[idle, hold]), ScaleDecision::Hold);
    }

    #[test]
    #[should_panic(expected = "busy out of range")]
    fn validates_inputs() {
        AutoscalePolicy::default().decide(&signals(1.5, 0.0, 1.0));
    }

    #[test]
    fn predictive_scaler_reads_the_trace_ahead() {
        // Ramp: 10 qps for the first minute, 100 qps for the second.
        let trace = RateTrace::new(vec![10.0, 100.0]);
        let sc = PredictiveAutoscaler {
            capacity_qps_per_gpu: 10.0,
            target_utilization: 1.0,
            lead_ms: 60_000.0,
            min_gpus: 1,
        };
        // At t=0 the scaler already sees minute 1's 100 qps.
        assert!((sc.needed_capacity(&trace, 0.0) - 10.0).abs() < 1e-9);
        // Past the horizon it holds the last minute's rate.
        assert!((sc.needed_capacity(&trace, 120_000.0) - 10.0).abs() < 1e-9);
        // No lead: sizes for the current minute.
        let now_only = PredictiveAutoscaler { lead_ms: 0.0, ..sc };
        assert!((now_only.needed_capacity(&trace, 0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn predictive_scaler_respects_utilization_target() {
        let trace = RateTrace::new(vec![70.0]);
        let sc = PredictiveAutoscaler::new(10.0, 2);
        // 70 qps at 70% target utilisation → 10 reference GPUs.
        assert!((sc.needed_capacity(&trace, 0.0) - 10.0).abs() < 1e-9);
    }
}
