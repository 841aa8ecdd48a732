//! Deterministic, opt-in telemetry for the serving stack.
//!
//! The subsystem is structured as four pieces:
//!
//! * [`event`] — query-lifecycle events (arrive / dispatch / retire) and
//!   wall-clock kernel spans;
//! * [`ledger`] — the scheduler decision ledger, joining each round's
//!   predicted latency and critical-query headroom against the measured
//!   execution (§5.2 prediction-error study as a serving artifact);
//! * [`registry`] — allocation-free enum-indexed counters and histograms;
//! * [`export`] — Chrome trace-event / Perfetto JSON and CSV lowering.
//!
//! # Determinism contract
//!
//! Telemetry records only quantities the simulation already computes
//! deterministically (wall-clock instants, predictor outputs, engine event
//! counts), in the order the single-threaded serving loop produces them.
//! Recorded streams are therefore bit-reproducible for a fixed seed and
//! configuration, independent of host thread count — parallel sweeps give
//! each cell its own `Telemetry`.
//!
//! # Disabled-path guarantee
//!
//! Telemetry is threaded into the serving loop as `Option<&mut Telemetry>`.
//! With `None`, the instrumented loop takes no telemetry branch that
//! mutates simulation state and performs no allocation: results are
//! byte-identical to the uninstrumented loop, which the golden checksum
//! tests pin.

pub mod drift;
pub mod event;
pub mod export;
pub mod flight;
pub mod health;
pub mod ledger;
pub mod registry;
pub mod sketch;
pub mod slo;

pub use drift::{
    width_class, width_class_label, DriftAlarm, DriftConfig, DriftDetector, WIDTH_CLASSES,
};
pub use event::{QueryEvent, QueryEventKind, WallKernelSpan};
pub use export::{ChromeTrace, PID_COUNTERS, PID_GPU, PID_HEALTH, PID_SERVING};
pub use flight::{FlightConfig, FlightDump, FlightRecorder, FlightRound};
pub use health::{HealthAlert, HealthAlertKind, HealthConfig, RunHealth};
pub use ledger::{DecisionLedger, LedgerEntry, PredictionErrorReport, RoundEntry};
pub use registry::{Counter, Hist, Histogram, Registry};
pub use sketch::WindowedMoments;
pub use slo::{SloAlert, SloConfig, SloMonitor};

use abacus_metrics::QueryOutcome;
use dnn_models::ModelId;

/// All telemetry recorded for one serving run.
///
/// Construct one per run (`new`, or [`Telemetry::with_kernel_trace`] to also
/// harvest per-kernel spans from the executor) and pass it to the
/// instrumented serving loop; afterwards read the event stream, ledger and
/// registry, or lower everything with [`export::ChromeTrace::add_telemetry`].
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    events: Vec<QueryEvent>,
    kernels: Vec<WallKernelSpan>,
    /// Per-round scheduler decisions joined with measured outcomes.
    pub ledger: DecisionLedger,
    /// Counters and histograms of the run.
    pub registry: Registry,
    kernel_trace: bool,
    predictor_ways: Option<usize>,
    /// Streaming run-health monitors (sketches, drift, SLO burn, flight
    /// recorder) — `None` unless explicitly enabled, so plain telemetry
    /// stays monitor-free and its recorded streams byte-identical.
    health: Option<Box<RunHealth>>,
}

impl Telemetry {
    /// Telemetry without kernel-span harvesting (the cheap default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Telemetry that also asks the executor for per-kernel spans.
    pub fn with_kernel_trace() -> Self {
        Self {
            kernel_trace: true,
            ..Self::default()
        }
    }

    /// Telemetry with the streaming run-health monitors enabled at their
    /// default tuning.
    pub fn with_health() -> Self {
        let mut t = Self::default();
        t.enable_health(HealthConfig::default());
        t
    }

    /// Enable (or re-tune) the run-health monitors on an existing
    /// `Telemetry` — composes with [`Telemetry::with_kernel_trace`].
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        self.health = Some(Box::new(RunHealth::new(cfg)));
    }

    /// The run-health monitors, when enabled.
    pub fn health(&self) -> Option<&RunHealth> {
        self.health.as_deref()
    }

    /// Mutable run-health monitors, when enabled.
    pub fn health_mut(&mut self) -> Option<&mut RunHealth> {
        self.health.as_deref_mut()
    }

    /// Whether kernel spans should be harvested after each group.
    pub fn kernel_trace_enabled(&self) -> bool {
        self.kernel_trace
    }

    /// Record the scheduler's candidate batch width (sizes predictor-batch
    /// histogram observations; only the Abacus policy has one).
    pub fn set_predictor_ways(&mut self, ways: usize) {
        self.predictor_ways = Some(ways);
    }

    /// The scheduler's candidate batch width, when known.
    pub fn predictor_ways(&self) -> Option<usize> {
        self.predictor_ways
    }

    /// The recorded query-lifecycle event stream, in record order.
    pub fn events(&self) -> &[QueryEvent] {
        &self.events
    }

    /// The recorded wall-clock kernel spans, in record order.
    pub fn kernel_spans(&self) -> &[WallKernelSpan] {
        &self.kernels
    }

    /// A query entered the node queue.
    pub fn on_arrive(
        &mut self,
        query: u64,
        at_ms: f64,
        service: usize,
        model: ModelId,
        qos_ms: f64,
    ) {
        self.registry.inc(Counter::QueriesArrived);
        if let Some(h) = self.health.as_deref_mut() {
            h.note_service(service, qos_ms);
        }
        self.events.push(QueryEvent {
            query,
            at_ms,
            kind: QueryEventKind::Arrived {
                service,
                model,
                qos_ms,
            },
        });
    }

    /// An operator range of a query was dispatched in a scheduling round.
    pub fn on_dispatch(
        &mut self,
        query: u64,
        at_ms: f64,
        round: u64,
        op_start: usize,
        op_end: usize,
    ) {
        self.events.push(QueryEvent {
            query,
            at_ms,
            kind: QueryEventKind::Dispatched {
                round,
                op_start,
                op_end,
            },
        });
    }

    /// A query left the system.
    pub fn on_retire(
        &mut self,
        query: u64,
        at_ms: f64,
        service: usize,
        outcome: QueryOutcome,
        latency_ms: f64,
        queue_ms: f64,
    ) {
        self.registry.inc(match outcome {
            QueryOutcome::Completed => Counter::QueriesCompleted,
            QueryOutcome::Dropped => Counter::QueriesDropped,
            QueryOutcome::TimedOut => Counter::QueriesTimedOut,
        });
        if outcome == QueryOutcome::Completed {
            self.registry.observe(Hist::QueueDelayMs, queue_ms);
        }
        if let Some(h) = self.health.as_deref_mut() {
            h.on_retire(at_ms, service, outcome, latency_ms, queue_ms);
        }
        self.events.push(QueryEvent {
            query,
            at_ms,
            kind: QueryEventKind::Retired {
                outcome,
                latency_ms,
                queue_ms,
                service,
            },
        });
    }

    /// Back-fill the most recent ledger row with its measured execution and
    /// feed the completed round into the run-health monitors (when
    /// enabled). Call *after* the round's engine counters have been set so
    /// the flight-recorder snapshot sees them fresh.
    pub fn on_round_complete(
        &mut self,
        round: u64,
        exec_start_ms: f64,
        actual_ms: f64,
        actual_exec_ms: f64,
    ) {
        self.ledger
            .complete_last(round, exec_start_ms, actual_ms, actual_exec_ms);
        if let Some(h) = self.health.as_deref_mut() {
            let row = self
                .ledger
                .rows()
                .last()
                .expect("complete_last guarantees a row");
            h.on_round(
                row,
                exec_start_ms + actual_ms,
                self.registry.get(Counter::EngineEvents),
                self.registry.get(Counter::EngineMaxActive),
            );
        }
    }

    /// Record one engine kernel span, rebased from group-local engine time
    /// onto the serving wall clock by the group's dispatch instant.
    pub fn on_kernel_span(&mut self, round: u64, base_ms: f64, span: &gpu_sim::KernelSpan) {
        self.kernels.push(WallKernelSpan {
            round,
            stream: span.stream.0,
            kernel: span.kernel,
            start_ms: base_ms + span.start_ms,
            end_ms: base_ms + span.end_ms,
            occupancy: span.occupancy,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_hooks_record_events_and_counters() {
        let mut t = Telemetry::new();
        t.on_arrive(0, 1.0, 1, ModelId::Bert, 100.0);
        t.on_dispatch(0, 2.0, 7, 0, 4);
        t.on_retire(0, 5.0, 1, QueryOutcome::Completed, 4.0, 1.0);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.registry.get(Counter::QueriesArrived), 1);
        assert_eq!(t.registry.get(Counter::QueriesCompleted), 1);
        assert_eq!(t.registry.hist(Hist::QueueDelayMs).count(), 1);
        assert_eq!(
            t.events()[1].kind,
            QueryEventKind::Dispatched {
                round: 7,
                op_start: 0,
                op_end: 4
            }
        );
    }

    #[test]
    fn dropped_queries_do_not_pollute_queue_delay() {
        let mut t = Telemetry::new();
        t.on_retire(3, 9.0, 0, QueryOutcome::Dropped, 9.0, 9.0);
        assert_eq!(t.registry.get(Counter::QueriesDropped), 1);
        assert_eq!(t.registry.hist(Hist::QueueDelayMs).count(), 0);
    }
}
