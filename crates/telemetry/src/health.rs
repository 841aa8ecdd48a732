//! The streaming run-health bundle.
//!
//! [`RunHealth`] composes the observability substrate — quantile sketches
//! over queue delay / latency / measured group time, per-width drift
//! detectors on the ledger's prediction-error join, per-service SLO
//! burn-rate monitors, and the violation flight recorder — behind one
//! optional field on `Telemetry`. The serving loop never calls into this
//! module directly: `Telemetry`'s existing hooks forward when health
//! monitoring is enabled, so the disabled path stays byte-identical.
//!
//! Every alert carries the **simulation clock** (the `at_ms` the serving
//! loop passed to the hook), never wall time: alert streams are `PartialEq`
//! and bit-reproducible for a fixed seed, which the detection-latency
//! tables in EXPERIMENTS.md rely on.

use crate::drift::{width_class_label, DriftConfig, DriftDetector};
use crate::export::{esc, fmt_f64};
use crate::flight::{FlightConfig, FlightRecorder, FlightRound};
use crate::ledger::RoundEntry;
use crate::sketch::WindowedMoments;
use crate::slo::{SloAlert, SloConfig, SloMonitor};
use abacus_metrics::{QuantileSketch, QueryOutcome};

/// Tuning for the whole run-health bundle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthConfig {
    /// Drift-detector tuning.
    pub drift: DriftConfig,
    /// SLO burn-rate tuning.
    pub slo: SloConfig,
    /// Flight-recorder tuning.
    pub flight: FlightConfig,
}

/// What a health alert reports.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthAlertKind {
    /// Prediction-error drift in one group-width class.
    Drift {
        /// Width class index (see [`crate::drift::width_class`]).
        class: usize,
        /// CUSUM score at alarm time.
        score: f64,
        /// EWMA |err| at alarm time.
        ewma_abs: f64,
    },
    /// A service burning its violation budget in both windows.
    BurnRate {
        /// Service index.
        service: usize,
        /// Fast-window burn rate.
        fast_burn: f64,
        /// Slow-window burn rate.
        slow_burn: f64,
    },
    /// A service's whole-run violation ratio exceeded its budget.
    BudgetExhausted {
        /// Service index.
        service: usize,
        /// Violation ratio at trip time.
        ratio: f64,
    },
}

/// One deterministic health alert.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// Position in the run's alert stream.
    pub seq: u64,
    /// Simulation clock of the alert, ms.
    pub at_ms: f64,
    /// What happened.
    pub kind: HealthAlertKind,
}

impl HealthAlert {
    /// Short label for trace instants and flight-dump reasons.
    pub fn label(&self) -> String {
        match &self.kind {
            HealthAlertKind::Drift { class, .. } => {
                format!("drift:{}", width_class_label(*class))
            }
            HealthAlertKind::BurnRate { service, .. } => format!("slo_burn:svc{service}"),
            HealthAlertKind::BudgetExhausted { service, .. } => {
                format!("slo_budget:svc{service}")
            }
        }
    }

    /// Hand-rolled JSON object (insertion-ordered, NaN → null).
    pub fn to_json(&self) -> String {
        let head = format!("{{\"seq\":{},\"at_ms\":{},", self.seq, fmt_f64(self.at_ms));
        match &self.kind {
            HealthAlertKind::Drift {
                class,
                score,
                ewma_abs,
            } => format!(
                "{head}\"kind\":\"drift\",\"class\":\"{}\",\"score\":{},\"ewma_abs\":{}}}",
                esc(width_class_label(*class)),
                fmt_f64(*score),
                fmt_f64(*ewma_abs)
            ),
            HealthAlertKind::BurnRate {
                service,
                fast_burn,
                slow_burn,
            } => format!(
                "{head}\"kind\":\"burn_rate\",\"service\":{service},\"fast_burn\":{},\"slow_burn\":{}}}",
                fmt_f64(*fast_burn),
                fmt_f64(*slow_burn)
            ),
            HealthAlertKind::BudgetExhausted { service, ratio } => format!(
                "{head}\"kind\":\"budget_exhausted\",\"service\":{service},\"ratio\":{}}}",
                fmt_f64(*ratio)
            ),
        }
    }
}

/// Streaming run-health state for one serving run.
#[derive(Debug, Clone)]
pub struct RunHealth {
    cfg: HealthConfig,
    queue_sketch: QuantileSketch,
    latency_sketch: QuantileSketch,
    group_sketch: QuantileSketch,
    err_window: WindowedMoments,
    drift: DriftDetector,
    slo: SloMonitor,
    flight: FlightRecorder,
    alerts: Vec<HealthAlert>,
    /// Per-service QoS targets learned from arrivals (violation test at
    /// retire time — the retire hook does not carry the target).
    qos_by_service: Vec<f64>,
}

impl RunHealth {
    /// A fresh bundle.
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            queue_sketch: QuantileSketch::new(),
            latency_sketch: QuantileSketch::new(),
            group_sketch: QuantileSketch::new(),
            err_window: WindowedMoments::new(cfg.drift.window),
            drift: DriftDetector::new(cfg.drift),
            slo: SloMonitor::new(cfg.slo),
            flight: FlightRecorder::new(cfg.flight),
            alerts: Vec::new(),
            qos_by_service: Vec::new(),
            cfg,
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Learn a service's QoS target (called on every arrival; idempotent).
    pub fn note_service(&mut self, service: usize, qos_ms: f64) {
        while self.qos_by_service.len() <= service {
            self.qos_by_service.push(f64::INFINITY);
        }
        self.qos_by_service[service] = qos_ms;
    }

    /// Feed one retired query into the SLO monitors and outcome sketches.
    pub fn on_retire(
        &mut self,
        at_ms: f64,
        service: usize,
        outcome: QueryOutcome,
        latency_ms: f64,
        queue_ms: f64,
    ) {
        if outcome == QueryOutcome::Completed {
            self.queue_sketch.record(queue_ms);
            self.latency_sketch.record(latency_ms);
        }
        let qos = self
            .qos_by_service
            .get(service)
            .copied()
            .unwrap_or(f64::INFINITY);
        let violated = outcome != QueryOutcome::Completed || latency_ms > qos;
        self.observe_query(at_ms, service, violated);
    }

    /// Feed one query outcome (already reduced to violated-or-not) into the
    /// burn-rate monitors. `on_retire` calls this; cluster paths that only
    /// have final `QueryRecord`s feed it directly in retire-time order.
    pub fn observe_query(&mut self, at_ms: f64, service: usize, violated: bool) {
        for alert in self.slo.observe(service, at_ms, violated) {
            let kind = match alert {
                SloAlert::BurnRate {
                    service,
                    fast_burn,
                    slow_burn,
                    ..
                } => HealthAlertKind::BurnRate {
                    service,
                    fast_burn,
                    slow_burn,
                },
                SloAlert::BudgetExhausted { service, ratio, .. } => {
                    HealthAlertKind::BudgetExhausted { service, ratio }
                }
            };
            let trip = matches!(kind, HealthAlertKind::BudgetExhausted { .. });
            self.push_alert(alert.at_ms(), kind, trip);
        }
    }

    /// Feed one completed scheduling round: the back-filled ledger row plus
    /// the engine health counters at completion time. `at_ms` is the round's
    /// completion instant on the simulation clock.
    pub fn on_round(
        &mut self,
        row: &RoundEntry,
        at_ms: f64,
        engine_events: u64,
        engine_max_active: u64,
    ) {
        if row.actual_exec_ms.is_finite() && row.actual_exec_ms > 0.0 {
            self.group_sketch.record(row.actual_exec_ms);
        }
        let rel_err = row.rel_error();
        self.flight.push(FlightRound {
            round: row.round,
            at_ms,
            ways: row.entries.len(),
            queue_len: row.queue_len,
            dropped: row.dropped,
            predicted_ms: row.predicted_ms,
            actual_exec_ms: row.actual_exec_ms,
            rel_err: rel_err.unwrap_or(f64::NAN),
            headroom_ms: row.critical_headroom_ms,
            engine_events,
            engine_max_active,
        });
        if let Some(err) = rel_err {
            self.err_window.push(err);
            if let Some(a) = self.drift.observe(row.entries.len(), err, at_ms) {
                self.push_alert(
                    a.at_ms,
                    HealthAlertKind::Drift {
                        class: a.class,
                        score: a.score,
                        ewma_abs: a.ewma_abs,
                    },
                    true,
                );
            }
        }
    }

    fn push_alert(&mut self, at_ms: f64, kind: HealthAlertKind, trip: bool) {
        let alert = HealthAlert {
            seq: self.alerts.len() as u64,
            at_ms,
            kind,
        };
        if trip {
            self.flight.trip(&alert.label(), at_ms);
        }
        self.alerts.push(alert);
    }

    /// The run's alert stream, in detection order.
    pub fn alerts(&self) -> &[HealthAlert] {
        &self.alerts
    }

    /// The drift detectors.
    pub fn drift(&self) -> &DriftDetector {
        &self.drift
    }

    /// The SLO burn-rate monitors.
    pub fn slo(&self) -> &SloMonitor {
        &self.slo
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Sketch over completed-query queueing delays.
    pub fn queue_sketch(&self) -> &QuantileSketch {
        &self.queue_sketch
    }

    /// Sketch over completed-query end-to-end latencies.
    pub fn latency_sketch(&self) -> &QuantileSketch {
        &self.latency_sketch
    }

    /// Sketch over measured per-round kernel times.
    pub fn group_sketch(&self) -> &QuantileSketch {
        &self.group_sketch
    }

    /// Windowed moments of recent signed prediction errors (all widths).
    pub fn err_window(&self) -> &WindowedMoments {
        &self.err_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::RoundEntry;

    fn completed_row(round: u64, ways: usize, predicted: f64, actual: f64) -> RoundEntry {
        RoundEntry {
            round,
            at_ms: round as f64,
            queue_len: 3,
            dropped: 0,
            overhead_ms: 0.1,
            prediction_rounds: 2,
            entries: vec![
                crate::ledger::LedgerEntry {
                    query: 0,
                    model: dnn_models::ModelId::ResNet50,
                    op_start: 0,
                    op_end: 4,
                };
                ways
            ],
            predicted_ms: predicted,
            upper_ms: f64::NAN,
            critical_headroom_ms: 5.0,
            exec_start_ms: round as f64,
            actual_ms: actual + 0.2,
            actual_exec_ms: actual,
        }
    }

    #[test]
    fn drift_alert_trips_flight_with_sim_clock() {
        let mut h = RunHealth::new(HealthConfig::default());
        for i in 0..30 {
            // Solo rounds at ~100% error: the PR 5 OOD regime, online.
            h.on_round(&completed_row(i, 1, 5.0, 10.0), 100.0 + i as f64, i * 10, 3);
            // Healthy 2-way rounds alongside.
            h.on_round(
                &completed_row(100 + i, 2, 10.0, 10.5),
                100.0 + i as f64,
                i * 10,
                3,
            );
        }
        let drifts: Vec<_> = h
            .alerts()
            .iter()
            .filter(|a| matches!(a.kind, HealthAlertKind::Drift { class: 0, .. }))
            .collect();
        assert_eq!(drifts.len(), 1, "solo class alarms exactly once");
        assert_eq!(drifts[0].at_ms, 111.0, "alert carries the sim clock");
        let dump = h.flight().dump().expect("drift must trip the recorder");
        assert_eq!(dump.reason, "drift:solo");
        assert!(dump.rounds.len() <= h.config().flight.capacity);
        assert!(!h
            .alerts()
            .iter()
            .any(|a| matches!(a.kind, HealthAlertKind::Drift { class: 1, .. })));
    }

    #[test]
    fn budget_exhaustion_trips_flight() {
        let mut h = RunHealth::new(HealthConfig::default());
        h.note_service(0, 20.0);
        for i in 0..60 {
            // Every query completes late: violation under Fig. 15 rules.
            h.on_retire(i as f64 * 10.0, 0, QueryOutcome::Completed, 30.0, 2.0);
        }
        assert!(h
            .alerts()
            .iter()
            .any(|a| matches!(a.kind, HealthAlertKind::BudgetExhausted { service: 0, .. })));
        assert_eq!(h.flight().dump().unwrap().reason, "slo_budget:svc0");
        // Completed queries (even late) still feed the sketches.
        assert_eq!(h.latency_sketch().count(), 60);
        assert_eq!(h.queue_sketch().count(), 60);
    }

    #[test]
    fn healthy_run_stays_quiet_and_alerts_are_comparable() {
        let mut h = RunHealth::new(HealthConfig::default());
        h.note_service(0, 100.0);
        for i in 0..200 {
            h.on_retire(i as f64 * 5.0, 0, QueryOutcome::Completed, 12.0, 1.0);
            h.on_round(&completed_row(i, 2, 10.0, 10.4), i as f64 * 5.0, i * 7, 2);
        }
        assert!(h.alerts().is_empty());
        assert!(h.flight().dump().is_none());
        // Two identical runs produce equal alert streams (PartialEq).
        let a: Vec<HealthAlert> = h.alerts().to_vec();
        assert_eq!(a, Vec::<HealthAlert>::new());
        // Alert JSON is balanced.
        let alert = HealthAlert {
            seq: 0,
            at_ms: 1.5,
            kind: HealthAlertKind::Drift {
                class: 0,
                score: 2.0,
                ewma_abs: 1.0,
            },
        };
        let json = alert.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"kind\":\"drift\""));
    }
}
