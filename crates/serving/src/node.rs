//! Single-GPU serving simulation.
//!
//! An open-loop discrete-event loop: queries arrive on a merged Poisson
//! stream, wait in the node's queue, and are executed in operator groups
//! proposed by a [`Scheduler`] (Abacus or a sequential baseline) on the
//! [`SegmentalExecutor`]. The executor runs one group at a time — the
//! exclusivity that makes Abacus's operator overlap deterministic — and
//! queries that complete in a group all return at the group's final sync.
//!
//! Output is one [`QueryRecord`] per query, from which every §7.2–7.5
//! figure is computed.

use crate::invariants::InvariantChecker;
use abacus_core::{Query, RoundDecision, Scheduler, SegmentalExecutor};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use telemetry::{Counter, Hist, LedgerEntry, RoundEntry, Telemetry};
use workload::Arrival;

/// A deployed service: the model plus its QoS target on this node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// The model this service runs.
    pub model: ModelId,
    /// Latency budget per query, ms.
    pub qos_ms: f64,
}

/// The workload handed to one node: arrivals (service index ↦
/// `services[i]`) with per-query inputs drawn in advance.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWorkload {
    /// Time-sorted arrivals.
    pub arrivals: Vec<Arrival>,
    /// Inputs, parallel to `arrivals`.
    pub inputs: Vec<QueryInput>,
}

impl NodeWorkload {
    /// Validate lengths and ordering.
    pub fn new(arrivals: Vec<Arrival>, inputs: Vec<QueryInput>) -> Self {
        assert_eq!(arrivals.len(), inputs.len());
        debug_assert!(arrivals.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        Self { arrivals, inputs }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the workload carries no queries.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// Defensive-runtime knobs for the serving loop (all off by default —
/// [`simulate_node`] with defaults is byte-identical to the undefended
/// loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeOptions {
    /// Evict queries whose sojourn exceeds `factor × qos_ms` as
    /// [`QueryOutcome::TimedOut`]. A stuck query (e.g. starved by a fault
    /// storm) is then bounded instead of occupying the queue forever.
    pub timeout_factor: Option<f64>,
}

/// Run one node to completion: all arrivals admitted, the queue drained.
///
/// Returns one record per query, in completion/drop order.
pub fn simulate_node(
    scheduler: &mut dyn Scheduler,
    executor: &mut SegmentalExecutor,
    lib: &ModelLibrary,
    services: &[ServiceSpec],
    workload: &NodeWorkload,
) -> Vec<QueryRecord> {
    simulate_node_checked(
        scheduler,
        executor,
        lib,
        services,
        workload,
        NodeOptions::default(),
        None,
    )
}

/// [`simulate_node`] with defensive options and optional invariant
/// checking.
///
/// Differences from the plain loop (beyond `opts`): a scheduler that drops
/// an unknown query id is recorded as an invariant violation instead of a
/// panic, and a scheduler that makes no progress on a non-empty queue (no
/// drop, no group, no pending arrival to advance to) trips a livelock
/// guard that force-evicts the oldest query rather than spinning forever.
pub fn simulate_node_checked(
    scheduler: &mut dyn Scheduler,
    executor: &mut SegmentalExecutor,
    lib: &ModelLibrary,
    services: &[ServiceSpec],
    workload: &NodeWorkload,
    opts: NodeOptions,
    checker: Option<&mut InvariantChecker>,
) -> Vec<QueryRecord> {
    simulate_node_instrumented(scheduler, executor, lib, services, workload, opts, checker, None)
}

/// [`simulate_node_checked`] with opt-in telemetry.
///
/// With `telemetry: None` this is the exact loop the un-instrumented entry
/// points run — no telemetry branch mutates simulation state, so results
/// are byte-identical (the golden-checksum tests pin this). With
/// `Some(t)`, the run's query-lifecycle events, scheduler decision ledger
/// and counters are recorded into `t`; when `t` asks for kernel traces the
/// caller must also have called [`SegmentalExecutor::enable_kernel_trace`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_node_instrumented(
    scheduler: &mut dyn Scheduler,
    executor: &mut SegmentalExecutor,
    lib: &ModelLibrary,
    services: &[ServiceSpec],
    workload: &NodeWorkload,
    opts: NodeOptions,
    mut checker: Option<&mut InvariantChecker>,
    mut telemetry: Option<&mut Telemetry>,
) -> Vec<QueryRecord> {
    let mut records = Vec::with_capacity(workload.len());
    let mut queue: Vec<Query> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;

    let admit = |queue: &mut Vec<Query>, next_arrival: &mut usize, now: f64| {
        while *next_arrival < workload.len() && workload.arrivals[*next_arrival].at_ms <= now {
            let a = workload.arrivals[*next_arrival];
            let input = workload.inputs[*next_arrival];
            let svc = services[a.service];
            let n_ops = lib.graph(svc.model, input).len();
            queue.push(Query::new(
                *next_arrival as u64,
                svc.model,
                input,
                a.at_ms,
                svc.qos_ms,
                n_ops,
            ));
            *next_arrival += 1;
        }
    };

    // Retire `queue[pos]` with `outcome` at `now`. Notifies the scheduler
    // first so its incremental order index stays in sync with the queue.
    #[allow(clippy::too_many_arguments)]
    fn retire(
        queue: &mut Vec<Query>,
        pos: usize,
        outcome: QueryOutcome,
        now: f64,
        services: &[ServiceSpec],
        scheduler: &mut dyn Scheduler,
        records: &mut Vec<QueryRecord>,
        checker: &mut Option<&mut InvariantChecker>,
        telemetry: &mut Option<&mut Telemetry>,
    ) {
        scheduler.on_retire(&queue[pos]);
        let q = queue.swap_remove(pos);
        if let Some(c) = checker.as_deref_mut() {
            c.on_terminal(q.id, outcome, now);
        }
        let service = service_index(services, q.model);
        let queue_ms = q.queue_ms().unwrap_or(if outcome == QueryOutcome::Completed {
            0.0
        } else {
            now - q.arrival_ms
        });
        if let Some(t) = telemetry.as_deref_mut() {
            t.on_retire(q.id, now, service, outcome, now - q.arrival_ms, queue_ms);
        }
        records.push(QueryRecord {
            service,
            arrival_ms: q.arrival_ms,
            latency_ms: now - q.arrival_ms,
            qos_ms: q.qos_ms,
            outcome,
            requests: q.input.batch,
            queue_ms,
        });
    }

    let mut round: u64 = 0;
    // Round-persistent buffers: the decision is written in place each round
    // (the scheduler recycles the planned-entry vector through it), and the
    // timeout / ledger scratch vectors are reused across rounds.
    let mut decision = RoundDecision::idle();
    let mut expired_ids: Vec<u64> = Vec::new();
    let mut entry_pos: Vec<usize> = Vec::new();
    loop {
        let first_new = next_arrival;
        admit(&mut queue, &mut next_arrival, now);
        for q in &queue[queue.len() - (next_arrival - first_new)..] {
            scheduler.on_admit(q);
        }
        if let Some(c) = checker.as_deref_mut() {
            for i in first_new..next_arrival {
                c.on_issue(i as u64, workload.arrivals[i].at_ms);
            }
        }
        if let Some(t) = telemetry.as_deref_mut() {
            for i in first_new..next_arrival {
                let a = workload.arrivals[i];
                let svc = services[a.service];
                t.on_arrive(i as u64, a.at_ms, a.service, svc.model, svc.qos_ms);
            }
        }
        // Defensive per-query timeout: bound the sojourn of queries the
        // scheduler can neither serve nor bring itself to drop.
        if let Some(factor) = opts.timeout_factor {
            // One pass collects every expired query; retiring in ascending
            // id order reproduces exactly what the former per-expiry
            // `filter().min_by_key()` rescan emitted (the predicate is
            // per-query, so retiring one cannot un-expire another).
            expired_ids.clear();
            expired_ids.extend(
                queue
                    .iter()
                    .filter(|q| now - q.arrival_ms > factor * q.qos_ms)
                    .map(|q| q.id),
            );
            expired_ids.sort_unstable();
            for &id in &expired_ids {
                let pos = queue
                    .iter()
                    .position(|q| q.id == id)
                    .expect("expired query vanished from queue");
                retire(
                    &mut queue,
                    pos,
                    QueryOutcome::TimedOut,
                    now,
                    services,
                    scheduler,
                    &mut records,
                    &mut checker,
                    &mut telemetry,
                );
            }
        }
        if queue.is_empty() {
            match workload.arrivals.get(next_arrival) {
                Some(a) => {
                    now = a.at_ms;
                    continue;
                }
                None => break,
            }
        }

        scheduler.decide_into(now, &queue, &mut decision);
        round += 1;
        if let Some(t) = telemetry.as_deref_mut() {
            t.registry.inc(Counter::SchedRounds);
            let stats = scheduler.decision_stats();
            t.registry
                .set(Counter::DecisionOrderPeak, stats.order_peak_len as u64);
            t.registry
                .set(Counter::DecisionScratchPeak, stats.scratch_peak as u64);
            t.registry
                .set(Counter::DecisionIncrementalRounds, stats.incremental_rounds);
            t.registry
                .set(Counter::DecisionFullRebuilds, stats.full_rebuilds);
            // Ledger rows only for rounds that made progress — idle probes
            // of an unservable queue would otherwise dominate the ledger.
            if decision.group.is_some() || !decision.dropped.is_empty() {
                let upper_ms = decision
                    .group
                    .as_ref()
                    .and_then(|g| g.upper_ms)
                    .unwrap_or(f64::NAN);
                let (entries, predicted_ms, prediction_rounds, headroom) = match &decision.group {
                    Some(g) => {
                        // Resolve each entry's queue position once; the row
                        // build and the critical-headroom fold below share
                        // the resolved positions instead of re-running a
                        // `find` over the queue per entry per use.
                        entry_pos.clear();
                        entry_pos.extend(g.entries.iter().map(|e| {
                            queue
                                .iter()
                                .position(|q| q.id == e.query_id)
                                .expect("planned entry references an unknown query")
                        }));
                        let entries: Vec<LedgerEntry> = g
                            .entries
                            .iter()
                            .zip(&entry_pos)
                            .map(|(e, &pos)| LedgerEntry {
                                query: e.query_id,
                                model: queue[pos].model,
                                op_start: e.op_start,
                                op_end: e.op_end,
                            })
                            .collect();
                        let headroom = entry_pos
                            .iter()
                            .map(|&pos| queue[pos].headroom_ms(now) - decision.overhead_ms)
                            .min_by(f64::total_cmp)
                            .unwrap_or(f64::NAN);
                        let predicted = if g.predicted_ms > 0.0 {
                            g.predicted_ms
                        } else {
                            f64::NAN
                        };
                        (entries, predicted, g.prediction_rounds, headroom)
                    }
                    None => (Vec::new(), f64::NAN, 0, f64::NAN),
                };
                t.ledger.push(RoundEntry {
                    round,
                    at_ms: now,
                    queue_len: queue.len(),
                    dropped: decision.dropped.len(),
                    overhead_ms: decision.overhead_ms,
                    prediction_rounds,
                    entries,
                    predicted_ms,
                    upper_ms,
                    critical_headroom_ms: headroom,
                    exec_start_ms: f64::NAN,
                    actual_ms: f64::NAN,
                    actual_exec_ms: f64::NAN,
                });
            }
        }
        let retired_any = !decision.dropped.is_empty();
        for id in &decision.dropped {
            match queue.iter().position(|q| q.id == *id) {
                Some(pos) => retire(
                    &mut queue,
                    pos,
                    QueryOutcome::Dropped,
                    now,
                    services,
                    scheduler,
                    &mut records,
                    &mut checker,
                    &mut telemetry,
                ),
                None => {
                    debug_assert!(false, "scheduler dropped unknown query {id}");
                    if let Some(c) = checker.as_deref_mut() {
                        c.on_unknown_drop(*id, now);
                    }
                }
            }
        }
        let Some(group) = decision.group.as_ref() else {
            if retired_any || queue.is_empty() {
                // Progress was made (or everything present was retired);
                // take the next arrival.
                continue;
            }
            if let Some(a) = workload.arrivals.get(next_arrival) {
                if a.at_ms > now {
                    // Idle until new work arrives.
                    now = a.at_ms;
                    continue;
                }
            }
            // Livelock: non-empty queue, nothing scheduled, nothing
            // dropped, no future arrival to advance to. Force-evict the
            // oldest query so the loop terminates, and flag it.
            if let Some(c) = checker.as_deref_mut() {
                c.on_stall(now, queue.len());
            }
            let pos = queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.arrival_ms
                        .total_cmp(&b.arrival_ms)
                        .then(a.id.cmp(&b.id))
                })
                .map(|(pos, _)| pos)
                .expect("queue checked non-empty");
            retire(
                &mut queue,
                pos,
                QueryOutcome::TimedOut,
                now,
                services,
                scheduler,
                &mut records,
                &mut checker,
                &mut telemetry,
            );
            continue;
        };
        now += decision.overhead_ms;
        for e in &group.entries {
            let pos = queue.iter().position(|q| q.id == e.query_id).unwrap();
            queue[pos].mark_started(now);
        }
        let spec = group.to_spec(
            |id| {
                queue
                    .iter()
                    .find(|q| q.id == id)
                    .expect("group references an unknown query")
            },
            lib,
        );
        let exec_start = now;
        if let Some(t) = telemetry.as_deref_mut() {
            for e in &group.entries {
                t.on_dispatch(e.query_id, exec_start, round, e.op_start, e.op_end);
            }
        }
        let out = executor.execute(&spec);
        now += out.duration_ms;
        if let Some(c) = checker.as_deref_mut() {
            c.on_group(exec_start, out.duration_ms, &out.stream_ms);
        }
        if let Some(t) = telemetry.as_deref_mut() {
            // The predictor estimates kernel time (the longest stream), not
            // the host-side sync/save overheads — join both against the row.
            let kernel_ms = out.stream_ms.iter().fold(0.0f64, |a, &b| a.max(b));
            t.registry.inc(Counter::GroupsExecuted);
            t.registry.add(Counter::PredictionRounds, group.prediction_rounds as u64);
            t.registry.observe(Hist::SearchRounds, group.prediction_rounds as f64);
            t.registry.observe(Hist::GroupWays, group.entries.len() as f64);
            t.registry.observe(Hist::GroupDurationMs, out.duration_ms);
            t.registry.set(Counter::EngineEvents, executor.engine_events());
            t.registry.set(Counter::FaultSpikes, executor.fault_spikes());
            let core = executor.engine_core_stats();
            t.registry.set(Counter::EngineMaxActive, core.max_active as u64);
            t.registry.set(Counter::EnginePendingPeak, core.pending_peak as u64);
            t.registry
                .set(Counter::EngineCalendarPeakBucket, core.calendar_peak_bucket as u64);
            if let Some(w) = t.predictor_ways() {
                for _ in 0..group.prediction_rounds {
                    t.registry.observe(Hist::PredictorBatch, w as f64);
                }
            }
            if t.kernel_trace_enabled() {
                for s in executor.kernel_trace() {
                    t.on_kernel_span(round, exec_start, s);
                }
            }
            // Joins the ledger row and, with health monitors on, snapshots
            // the engine counters set above into the flight recorder.
            t.on_round_complete(round, exec_start, out.duration_ms, kernel_ms);
        }
        scheduler.on_group_complete(out.duration_ms);
        for e in &group.entries {
            let pos = queue.iter().position(|q| q.id == e.query_id).unwrap();
            queue[pos].advance_to(e.op_end);
            if queue[pos].is_complete() {
                retire(
                    &mut queue,
                    pos,
                    QueryOutcome::Completed,
                    now,
                    services,
                    scheduler,
                    &mut records,
                    &mut checker,
                    &mut telemetry,
                );
            }
        }
    }
    if let Some(c) = checker {
        c.finish();
    }
    records
}

fn service_index(services: &[ServiceSpec], model: ModelId) -> usize {
    services
        .iter()
        .position(|s| s.model == model)
        .expect("model not deployed on this node")
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_core::{
        AbacusConfig, AbacusScheduler, BaselinePolicy, BaselineScheduler, SegmentalExecutor,
    };
    use gpu_sim::{GpuSpec, NoiseModel};
    use predictor::LatencyModel;
    use std::sync::Arc;
    use workload::{merge_arrivals, PoissonProcess, SeededRng};

    fn lib() -> Arc<ModelLibrary> {
        Arc::new(ModelLibrary::new())
    }

    fn mk_workload(
        services: &[ServiceSpec],
        qps: f64,
        horizon: f64,
        lib: &ModelLibrary,
        seed: u64,
    ) -> NodeWorkload {
        let mut rng = SeededRng::new(seed);
        let streams: Vec<_> = (0..services.len())
            .map(|s| PoissonProcess::new(s, qps).generate(horizon, &mut rng))
            .collect();
        let arrivals = merge_arrivals(streams);
        let inputs = arrivals
            .iter()
            .map(|a| lib.random_input(services[a.service].model, &mut rng))
            .collect();
        NodeWorkload::new(arrivals, inputs)
    }

    fn services(models: &[ModelId], lib: &ModelLibrary, gpu: &GpuSpec) -> Vec<ServiceSpec> {
        models
            .iter()
            .map(|&m| ServiceSpec {
                model: m,
                qos_ms: lib.qos_target_ms(m, gpu),
            })
            .collect()
    }

    #[test]
    fn fcfs_under_light_load_meets_qos() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50, ModelId::ResNet101], &lib, &gpu);
        let wl = mk_workload(&svcs, 5.0, 5_000.0, &lib, 1);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Fcfs, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 2);
        let records = simulate_node(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
        let met = records.iter().filter(|r| r.met_qos()).count();
        assert!(met * 10 >= records.len() * 9, "{met}/{}", records.len());
    }

    #[test]
    fn every_query_is_accounted_exactly_once() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::Vgg16, ModelId::Vgg19], &lib, &gpu);
        let wl = mk_workload(&svcs, 40.0, 3_000.0, &lib, 2);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Edf, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::calibrated(), lib.clone(), 3);
        let records = simulate_node(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
    }

    /// A cheap stand-in predictor: sequential sum of solo latencies
    /// (pessimistic, so QoS always holds; exercises the full Abacus path).
    struct SeqModel {
        lib: Arc<ModelLibrary>,
        gpu: GpuSpec,
    }
    impl LatencyModel for SeqModel {
        fn predict_one(&self, x: &[f64]) -> f64 {
            // Decode spans from the Fig. 8 layout; weight by each model's
            // max-input solo latency as a crude per-op cost.
            let mut total = 0.0;
            let mut slot = 0;
            for (idx, m) in ModelId::ALL.into_iter().enumerate() {
                if x[idx] > 0.5 {
                    let base = predictor::MODEL_SLOT_BASE + slot * 4;
                    let span = x[base + 1] - x[base];
                    let solo = self.lib.solo_ms(m, m.max_input(), &self.gpu);
                    total += span * solo;
                    slot += 1;
                }
            }
            total
        }
        fn name(&self) -> &'static str {
            "seq"
        }
    }

    #[test]
    fn abacus_node_runs_and_meets_qos_under_light_load() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50, ModelId::Bert], &lib, &gpu);
        let wl = mk_workload(&svcs, 10.0, 5_000.0, &lib, 4);
        let model = Arc::new(SeqModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        let mut sched = AbacusScheduler::new(model, lib.clone(), AbacusConfig::default());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::calibrated(), lib.clone(), 5);
        let records = simulate_node(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
        let violations = records.iter().filter(|r| !r.met_qos()).count();
        assert!(
            violations * 20 <= records.len(),
            "{violations}/{}",
            records.len()
        );
    }

    #[test]
    fn overload_drops_rather_than_stalls() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        // Absurd load on a heavy pair: the drop mechanism must keep the
        // queue draining and every query accounted.
        let svcs = services(&[ModelId::Vgg16, ModelId::Vgg19], &lib, &gpu);
        let wl = mk_workload(&svcs, 120.0, 2_000.0, &lib, 6);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Fcfs, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 7);
        let records = simulate_node(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
        let dropped = records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Dropped)
            .count();
        assert!(dropped > 0);
    }

    #[test]
    fn timeout_bounds_sojourn_and_counts_as_timed_out() {
        use crate::invariants::InvariantChecker;
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::Vgg16, ModelId::Vgg19], &lib, &gpu);
        let wl = mk_workload(&svcs, 120.0, 2_000.0, &lib, 6);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Fcfs, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 7);
        let mut checker = InvariantChecker::new();
        let records = simulate_node_checked(
            &mut sched,
            &mut exec,
            &lib,
            &svcs,
            &wl,
            NodeOptions {
                timeout_factor: Some(1.0),
            },
            Some(&mut checker),
        );
        assert_eq!(records.len(), wl.len());
        assert_eq!(checker.report(), Ok(()));
        let timed_out = records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::TimedOut)
            .count();
        assert!(timed_out > 0, "overload with timeout must evict");
        // Every timed-out query's sojourn indeed exceeded its budget.
        assert!(records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::TimedOut)
            .all(|r| r.latency_ms > r.qos_ms));
    }

    /// A scheduler that never drops and never plans: the old loop would
    /// spin on it forever; the livelock guard must terminate and flag it.
    struct StallScheduler;
    impl abacus_core::Scheduler for StallScheduler {
        fn decide_into(
            &mut self,
            _now_ms: f64,
            _queue: &[Query],
            out: &mut abacus_core::RoundDecision,
        ) {
            *out = abacus_core::RoundDecision::idle();
        }
        fn on_group_complete(&mut self, _duration_ms: f64) {}
        fn name(&self) -> &'static str {
            "stall"
        }
    }

    #[test]
    fn livelock_guard_terminates_and_flags_stalled_scheduler() {
        use crate::invariants::InvariantChecker;
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50], &lib, &gpu);
        let wl = mk_workload(&svcs, 10.0, 500.0, &lib, 9);
        assert!(!wl.is_empty());
        let mut sched = StallScheduler;
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 1);
        let mut checker = InvariantChecker::new();
        let records = simulate_node_checked(
            &mut sched,
            &mut exec,
            &lib,
            &svcs,
            &wl,
            NodeOptions::default(),
            Some(&mut checker),
        );
        // Terminates (would previously livelock) with every query
        // force-evicted and the stall recorded as a violation.
        assert_eq!(records.len(), wl.len());
        assert!(records.iter().all(|r| r.outcome == QueryOutcome::TimedOut));
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.contains("livelock guard")));
    }

    #[test]
    fn empty_workload_is_fine() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50], &lib, &gpu);
        let wl = NodeWorkload::new(vec![], vec![]);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Sjf, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 8);
        assert!(simulate_node(&mut sched, &mut exec, &lib, &svcs, &wl).is_empty());
    }
}
