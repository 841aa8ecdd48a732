//! The per-GPU serving loop.
//!
//! Queries wait in a GPU's queue and are executed in operator groups
//! proposed by a [`Scheduler`] (Abacus or a sequential baseline) on the
//! [`SegmentalExecutor`]. The executor runs one group at a time — the
//! exclusivity that makes Abacus's operator overlap deterministic — and
//! queries that complete in a group all return at the group's final sync.
//!
//! [`NodeServer`] is that loop, once: decide → execute → retire, resumable
//! between arrivals. A single-GPU run ([`simulate_node_checked`], and
//! [`crate::run`], which builds the workload, scheduler and executor from a
//! [`crate::RunSpec`]) admits each arrival as it falls due and drains; the
//! K8s and routed clusters hold one server per GPU. Output is one
//! [`QueryRecord`] per query, from which every §7.2–7.6 figure is computed.

use crate::invariants::InvariantChecker;
use abacus_core::{
    DecisionStats, PlannedGroup, Query, RoundDecision, Scheduler, SegmentalExecutor,
};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use predictor::{GroupEntry, GroupSpec};
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
/// the defaults leave the loop byte-identical to the undefended one).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeOptions {
    /// Evict queries whose sojourn exceeds `factor × qos_ms` as
    /// [`QueryOutcome::TimedOut`]. A stuck query (e.g. starved by a fault
    /// storm) is then bounded instead of occupying the queue forever.
    pub timeout_factor: Option<f64>,
}

/// Aggregate utilisation of one GPU over a run — the autoscaler's input
/// signals (§7.9).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuUsage {
    /// Total wall time spent executing groups, ms.
    pub busy_ms: f64,
    /// Operator groups executed.
    pub groups: u64,
    /// Sum of the groups' sequential-execution times, ms (overlap-gain
    /// numerator).
    pub sequential_ms: f64,
}

impl GpuUsage {
    /// Fraction of the horizon the GPU was executing, in `[0, 1]`.
    pub fn busy_fraction(&self, horizon_ms: f64) -> f64 {
        (self.busy_ms / horizon_ms).clamp(0.0, 1.0)
    }

    /// Mean overlap gain: sequential time ÷ actual time (1.0 = no benefit).
    pub fn overlap_gain(&self) -> f64 {
        if self.busy_ms <= 0.0 {
            1.0
        } else {
            self.sequential_ms / self.busy_ms
        }
    }
}

/// What a [`NodeServer`] borrows for one call: the scheduler that decides
/// its rounds, the executor that runs them (and whose model library and
/// GPU spec the groups are built on), and the optional observers.
pub struct NodeIo<'a> {
    /// Decides every round; told of every admit and retire.
    pub scheduler: &'a mut dyn Scheduler,
    /// Executes every group.
    pub executor: &'a mut SegmentalExecutor,
    /// Records invariant violations; `None` checks nothing.
    pub checker: Option<&'a mut InvariantChecker>,
    /// Records the query lifecycle, decision ledger and counters. It never
    /// feeds back into the loop, so records are byte-identical with `None`
    /// (the golden-checksum tests pin this). Kernel spans are harvested
    /// only from an executor with
    /// [`SegmentalExecutor::enable_kernel_trace`] on.
    pub telemetry: Option<&'a mut Telemetry>,
}

impl<'a> NodeIo<'a> {
    /// A scheduler and executor with no observers.
    pub fn new(scheduler: &'a mut dyn Scheduler, executor: &'a mut SegmentalExecutor) -> Self {
        Self {
            scheduler,
            executor,
            checker: None,
            telemetry: None,
        }
    }
}

/// One GPU's serving loop, resumable between arrivals.
///
/// The server owns only loop state — queue, clock, the recycled
/// [`RoundDecision`], records and [`GpuUsage`]; the scheduler, executor
/// and observers are lent to each call through a [`NodeIo`]. Drive it as
/// "for each arrival: [`advance`](Self::advance) to its time, then
/// [`admit`](Self::admit) it; finally [`drain`](Self::drain)".
///
/// **Tie rule.** A round that starts at `t` sees every arrival with
/// `at_ms ≤ t`: `advance(until)` runs only rounds that start strictly
/// before `until`. So extra `advance` cut points between admits change
/// nothing — the routed cluster's epoch barriers rely on this.
///
/// A scheduler that neither plans nor drops on a non-empty queue parks the
/// server until the next admit; at [`drain`](Self::drain), where no admit
/// can follow, a livelock guard force-evicts the oldest query as
/// [`QueryOutcome::TimedOut`] (and flags the stall) rather than spinning.
#[derive(Debug)]
pub struct NodeServer {
    /// Record `service` per [`ModelId::index`].
    labels: [usize; ModelId::ALL.len()],
    opts: NodeOptions,
    /// When the next round can start: the end of the last group, or the
    /// latest admit into an idle queue.
    now: f64,
    queue: Vec<Query>,
    /// The last round was idle over a non-empty queue; wait for an admit.
    parked: bool,
    round: u64,
    /// Written in place each round; the scheduler recycles the planned
    /// group's entry vector through it.
    decision: RoundDecision,
    records: Vec<QueryRecord>,
    usage: GpuUsage,
    /// Timeout scratch, reused across rounds.
    expired_ids: Vec<u64>,
    /// This round's group entries' queue positions, resolved once and kept
    /// valid across every retirement in the round.
    entry_pos: Vec<usize>,
}

impl NodeServer {
    /// A server for a node deployment: records carry each query's service
    /// as its position in `services`.
    pub fn new(services: &[ServiceSpec], opts: NodeOptions) -> Self {
        let mut labels = [usize::MAX; ModelId::ALL.len()];
        for (i, s) in services.iter().enumerate().rev() {
            labels[s.model.index()] = i;
        }
        Self::with_labels(labels, opts)
    }

    /// A server for a cluster GPU: records carry each query's service as
    /// its [`ModelId::index`].
    pub fn by_model() -> Self {
        Self::with_labels(ModelId::ALL.map(ModelId::index), NodeOptions::default())
    }

    fn with_labels(labels: [usize; ModelId::ALL.len()], opts: NodeOptions) -> Self {
        Self {
            labels,
            opts,
            now: 0.0,
            queue: Vec::new(),
            parked: false,
            round: 0,
            decision: RoundDecision::idle(),
            records: Vec::new(),
            usage: GpuUsage::default(),
            expired_ids: Vec::new(),
            entry_pos: Vec::new(),
        }
    }

    /// Queries waiting or in progress (the least-connections signal).
    pub fn outstanding(&self) -> usize {
        self.queue.len()
    }

    /// When the next round can start, ms.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The most urgent queued query: earliest deadline, lowest id on ties.
    pub fn head(&self) -> Option<&Query> {
        self.queue.iter().min_by(|a, b| {
            a.deadline_ms()
                .total_cmp(&b.deadline_ms())
                .then(a.id.cmp(&b.id))
        })
    }

    /// Utilisation so far.
    pub fn usage(&self) -> GpuUsage {
        self.usage
    }

    /// Move the records retired so far, in retirement order, onto `out`.
    pub fn take_records(&mut self, out: &mut Vec<QueryRecord>) {
        out.append(&mut self.records);
    }

    /// Enqueue `q`. Call after [`advance`](Self::advance)`(q.arrival_ms)`,
    /// in arrival order.
    pub fn admit(&mut self, q: Query, io: &mut NodeIo) {
        debug_assert!(
            self.queue.is_empty() || self.parked || self.now >= q.arrival_ms,
            "admit before advancing to the arrival"
        );
        self.now = self.now.max(q.arrival_ms);
        self.parked = false;
        if let Some(c) = io.checker.as_deref_mut() {
            c.on_issue(q.id, q.arrival_ms);
        }
        if let Some(t) = io.telemetry.as_deref_mut() {
            t.on_arrive(q.id, q.arrival_ms, self.label(q.model), q.model, q.qos_ms);
        }
        io.scheduler.on_admit(&q);
        self.queue.push(q);
    }

    /// Run every round that starts before `until`.
    pub fn advance(&mut self, until: f64, io: &mut NodeIo) {
        while !self.queue.is_empty() && !self.parked && self.now < until {
            self.round(io);
        }
    }

    /// Run the queue dry — no admit follows — then close the checker.
    pub fn drain(&mut self, io: &mut NodeIo) {
        while !self.queue.is_empty() {
            if self.parked {
                self.evict_oldest(io);
                self.parked = false;
            } else {
                self.round(io);
            }
        }
        if let Some(c) = io.checker.as_deref_mut() {
            c.finish();
        }
    }

    fn label(&self, model: ModelId) -> usize {
        let service = self.labels[model.index()];
        assert!(service != usize::MAX, "model not deployed on this node");
        service
    }

    /// Livelock: a non-empty queue, nothing scheduled, nothing dropped and
    /// no admit to wait for. Force-evict the oldest query and flag it.
    fn evict_oldest(&mut self, io: &mut NodeIo) {
        if let Some(c) = io.checker.as_deref_mut() {
            c.on_stall(self.now, self.queue.len());
        }
        let pos = self
            .queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id)))
            .map(|(pos, _)| pos)
            .expect("queue checked non-empty");
        self.retire(pos, QueryOutcome::TimedOut, io);
    }

    /// Retire `queue[pos]` with `outcome` at `now`. Notifies the scheduler
    /// first so its incremental order index stays in sync with the queue,
    /// and re-points the entry position the swap-remove moved.
    fn retire(&mut self, pos: usize, outcome: QueryOutcome, io: &mut NodeIo) {
        io.scheduler.on_retire(&self.queue[pos]);
        let q = self.queue.swap_remove(pos);
        let moved = self.queue.len();
        for p in &mut self.entry_pos {
            if *p == moved {
                *p = pos;
            }
        }
        let now = self.now;
        if let Some(c) = io.checker.as_deref_mut() {
            c.on_terminal(q.id, outcome, now);
        }
        let service = self.label(q.model);
        let queue_ms = q
            .queue_ms()
            .unwrap_or(if outcome == QueryOutcome::Completed {
                0.0
            } else {
                now - q.arrival_ms
            });
        if let Some(t) = io.telemetry.as_deref_mut() {
            t.on_retire(q.id, now, service, outcome, now - q.arrival_ms, queue_ms);
        }
        self.records.push(QueryRecord {
            service,
            arrival_ms: q.arrival_ms,
            latency_ms: now - q.arrival_ms,
            qos_ms: q.qos_ms,
            outcome,
            requests: q.input.batch,
            queue_ms,
        });
    }

    /// One round at `now`: timeouts, decide, drops, then the group.
    fn round(&mut self, io: &mut NodeIo) {
        self.entry_pos.clear();
        // Defensive per-query timeout: bound the sojourn of queries the
        // scheduler can neither serve nor bring itself to drop.
        if let Some(factor) = self.opts.timeout_factor {
            // One pass collects every expired query; retiring in ascending
            // id order reproduces exactly what the former per-expiry
            // `filter().min_by_key()` rescan emitted (the predicate is
            // per-query, so retiring one cannot un-expire another).
            let now = self.now;
            self.expired_ids.clear();
            self.expired_ids.extend(
                self.queue
                    .iter()
                    .filter(|q| now - q.arrival_ms > factor * q.qos_ms)
                    .map(|q| q.id),
            );
            self.expired_ids.sort_unstable();
            for i in 0..self.expired_ids.len() {
                let id = self.expired_ids[i];
                let pos = self
                    .queue
                    .iter()
                    .position(|q| q.id == id)
                    .expect("expired query vanished from queue");
                self.retire(pos, QueryOutcome::TimedOut, io);
            }
            if self.queue.is_empty() {
                return;
            }
        }

        io.scheduler
            .decide_into(self.now, &self.queue, &mut self.decision);
        self.round += 1;
        let group = self.decision.group.take();
        if let Some(g) = &group {
            self.entry_pos.extend(g.entries.iter().map(|e| {
                self.queue
                    .iter()
                    .position(|q| q.id == e.query_id)
                    .expect("planned entry references an unknown query")
            }));
        }
        if let Some(t) = io.telemetry.as_deref_mut() {
            self.ledger_row(t, io.scheduler.decision_stats(), group.as_ref());
        }
        let retired_any = !self.decision.dropped.is_empty();
        for i in 0..self.decision.dropped.len() {
            let id = self.decision.dropped[i];
            match self.queue.iter().position(|q| q.id == id) {
                Some(pos) => {
                    debug_assert!(!self.entry_pos.contains(&pos), "dropped a planned query");
                    self.retire(pos, QueryOutcome::Dropped, io);
                }
                None => {
                    debug_assert!(false, "scheduler dropped unknown query {id}");
                    if let Some(c) = io.checker.as_deref_mut() {
                        c.on_unknown_drop(id, self.now);
                    }
                }
            }
        }
        let Some(group) = group else {
            // Park only when nothing moved: a round that retired something
            // (or emptied the queue) decides again at the same instant.
            self.parked = !retired_any && !self.queue.is_empty();
            return;
        };
        self.now += self.decision.overhead_ms;
        let exec_start = self.now;
        for &pos in &self.entry_pos {
            self.queue[pos].mark_started(exec_start);
        }
        let spec = GroupSpec::new(
            group
                .entries
                .iter()
                .zip(&self.entry_pos)
                .map(|(e, &pos)| GroupEntry {
                    model: self.queue[pos].model,
                    op_start: e.op_start,
                    op_end: e.op_end,
                    input: self.queue[pos].input,
                })
                .collect(),
            io.executor.library(),
        );
        if let Some(t) = io.telemetry.as_deref_mut() {
            for e in &group.entries {
                t.on_dispatch(e.query_id, exec_start, self.round, e.op_start, e.op_end);
            }
        }
        let out = io.executor.execute(&spec);
        self.now += out.duration_ms;
        self.usage.busy_ms += out.duration_ms;
        self.usage.groups += 1;
        self.usage.sequential_ms += out.sequential_ms;
        if let Some(c) = io.checker.as_deref_mut() {
            c.on_group(exec_start, out.duration_ms, &out.stream_ms);
        }
        if let Some(t) = io.telemetry.as_deref_mut() {
            // The predictor estimates kernel time (the longest stream), not
            // the host-side sync/save overheads — join both against the row.
            let kernel_ms = out.stream_ms.iter().fold(0.0f64, |a, &b| a.max(b));
            t.registry.inc(Counter::GroupsExecuted);
            t.registry
                .add(Counter::PredictionRounds, group.prediction_rounds as u64);
            t.registry
                .observe(Hist::SearchRounds, group.prediction_rounds as f64);
            t.registry
                .observe(Hist::GroupWays, group.entries.len() as f64);
            t.registry.observe(Hist::GroupDurationMs, out.duration_ms);
            let exec = &*io.executor;
            t.registry.set(Counter::EngineEvents, exec.engine_events());
            t.registry.set(Counter::FaultSpikes, exec.fault_spikes());
            let core = exec.engine_core_stats();
            t.registry
                .set(Counter::EngineMaxActive, core.max_active as u64);
            t.registry
                .set(Counter::EnginePendingPeak, core.pending_peak as u64);
            t.registry.set(
                Counter::EngineCalendarPeakBucket,
                core.calendar_peak_bucket as u64,
            );
            if let Some(w) = t.predictor_ways() {
                for _ in 0..group.prediction_rounds {
                    t.registry.observe(Hist::PredictorBatch, w as f64);
                }
            }
            if t.kernel_trace_enabled() {
                for s in exec.kernel_trace() {
                    t.on_kernel_span(self.round, exec_start, s);
                }
            }
            // Joins the ledger row and, with health monitors on, snapshots
            // the engine counters set above into the flight recorder.
            t.on_round_complete(self.round, exec_start, out.duration_ms, kernel_ms);
        }
        io.scheduler.on_group_complete(out.duration_ms);
        for (i, e) in group.entries.iter().enumerate() {
            let pos = self.entry_pos[i];
            self.queue[pos].advance_to(e.op_end);
            if self.queue[pos].is_complete() {
                self.retire(pos, QueryOutcome::Completed, io);
            }
        }
        // Hand the entry buffer back for next round's recycling.
        self.decision.group = Some(group);
    }

    /// The decision-layer counters and, for a round that made progress, a
    /// ledger row (idle probes of an unservable queue would otherwise
    /// dominate the ledger). Built before the drops leave the queue.
    fn ledger_row(&self, t: &mut Telemetry, stats: DecisionStats, group: Option<&PlannedGroup>) {
        t.registry.inc(Counter::SchedRounds);
        t.registry
            .set(Counter::DecisionOrderPeak, stats.order_peak_len as u64);
        t.registry
            .set(Counter::DecisionScratchPeak, stats.scratch_peak as u64);
        t.registry
            .set(Counter::DecisionIncrementalRounds, stats.incremental_rounds);
        t.registry
            .set(Counter::DecisionFullRebuilds, stats.full_rebuilds);
        let decision = &self.decision;
        if group.is_none() && decision.dropped.is_empty() {
            return;
        }
        let (entries, predicted_ms, prediction_rounds, headroom, upper_ms) = match group {
            Some(g) => {
                let entries: Vec<LedgerEntry> = g
                    .entries
                    .iter()
                    .zip(&self.entry_pos)
                    .map(|(e, &pos)| LedgerEntry {
                        query: e.query_id,
                        model: self.queue[pos].model,
                        op_start: e.op_start,
                        op_end: e.op_end,
                    })
                    .collect();
                let headroom = self
                    .entry_pos
                    .iter()
                    .map(|&pos| self.queue[pos].headroom_ms(self.now) - decision.overhead_ms)
                    .min_by(f64::total_cmp)
                    .unwrap_or(f64::NAN);
                let predicted = if g.predicted_ms > 0.0 {
                    g.predicted_ms
                } else {
                    f64::NAN
                };
                let upper = g.upper_ms.unwrap_or(f64::NAN);
                (entries, predicted, g.prediction_rounds, headroom, upper)
            }
            None => (Vec::new(), f64::NAN, 0, f64::NAN, f64::NAN),
        };
        t.ledger.push(RoundEntry {
            round: self.round,
            at_ms: self.now,
            queue_len: self.queue.len(),
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

/// Run one node to completion — every arrival admitted as it falls due, the
/// queue drained — with defensive options and optional invariant checking.
///
/// Returns one record per query, in completion/drop order. A scheduler
/// that drops an unknown query id is recorded as an invariant violation
/// instead of a panic, and a scheduler that makes no progress on a
/// non-empty queue with no arrival left to wait for trips the livelock
/// guard (see [`NodeServer`]).
pub fn simulate_node_checked(
    scheduler: &mut dyn Scheduler,
    executor: &mut SegmentalExecutor,
    lib: &ModelLibrary,
    services: &[ServiceSpec],
    workload: &NodeWorkload,
    opts: NodeOptions,
    checker: Option<&mut InvariantChecker>,
) -> Vec<QueryRecord> {
    let io = NodeIo {
        checker,
        ..NodeIo::new(scheduler, executor)
    };
    serve(io, lib, services, workload, opts)
}

/// Admit each of `workload`'s arrivals as it falls due, then drain.
pub(crate) fn serve(
    mut io: NodeIo,
    lib: &ModelLibrary,
    services: &[ServiceSpec],
    workload: &NodeWorkload,
    opts: NodeOptions,
) -> Vec<QueryRecord> {
    let mut server = NodeServer::new(services, opts);
    server.records.reserve(workload.len());
    for (i, (a, &input)) in workload.arrivals.iter().zip(&workload.inputs).enumerate() {
        let svc = services[a.service];
        let n_ops = lib.graph(svc.model, input).len();
        server.advance(a.at_ms, &mut io);
        server.admit(
            Query::new(i as u64, svc.model, input, a.at_ms, svc.qos_ms, n_ops),
            &mut io,
        );
    }
    server.drain(&mut io);
    server.records
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_core::{
        AbacusConfig, AbacusScheduler, BaselinePolicy, BaselineScheduler, SegmentalExecutor,
    };
    use gpu_sim::{GpuSpec, NoiseModel};
    use reference::SpanModel;
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

    /// The loop with default options and no invariant checker.
    fn run_plain(
        sched: &mut dyn Scheduler,
        exec: &mut SegmentalExecutor,
        lib: &ModelLibrary,
        svcs: &[ServiceSpec],
        wl: &NodeWorkload,
    ) -> Vec<QueryRecord> {
        simulate_node_checked(sched, exec, lib, svcs, wl, NodeOptions::default(), None)
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
        let records = run_plain(&mut sched, &mut exec, &lib, &svcs, &wl);
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
        let records = run_plain(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
    }

    #[test]
    fn abacus_node_runs_and_meets_qos_under_light_load() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50, ModelId::Bert], &lib, &gpu);
        let wl = mk_workload(&svcs, 10.0, 5_000.0, &lib, 4);
        // Span-weighted solo latencies: pessimistic, so QoS holds while
        // the full Abacus path is exercised.
        let model = Arc::new(SpanModel::solo_weighted(&lib, &gpu));
        let mut sched = AbacusScheduler::new(model, lib.clone(), AbacusConfig::default());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::calibrated(), lib.clone(), 5);
        let records = run_plain(&mut sched, &mut exec, &lib, &svcs, &wl);
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
        let records = run_plain(&mut sched, &mut exec, &lib, &svcs, &wl);
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
        assert!(run_plain(&mut sched, &mut exec, &lib, &svcs, &wl).is_empty());
    }

    /// FCFS that idles on every third decision: exercises parking, whose
    /// re-decide count a cut point must not change.
    struct FlakyScheduler {
        inner: BaselineScheduler,
        calls: u64,
    }
    impl abacus_core::Scheduler for FlakyScheduler {
        fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                *out = RoundDecision::idle();
            } else {
                self.inner.decide_into(now_ms, queue, out);
            }
        }
        fn name(&self) -> &'static str {
            "flaky"
        }
    }

    /// Drive a [`NodeServer`] by hand: before each admit, advance to every
    /// `cuts` point that falls before the arrival, then to the arrival.
    fn serve_with_cuts(
        mut io: NodeIo,
        lib: &ModelLibrary,
        svcs: &[ServiceSpec],
        wl: &NodeWorkload,
        opts: NodeOptions,
        cuts: &[f64],
    ) -> Vec<QueryRecord> {
        let mut server = NodeServer::new(svcs, opts);
        let mut cuts = cuts.iter().copied().peekable();
        for (i, (a, &input)) in wl.arrivals.iter().zip(&wl.inputs).enumerate() {
            while let Some(c) = cuts.next_if(|&c| c < a.at_ms) {
                server.advance(c, &mut io);
            }
            server.advance(a.at_ms, &mut io);
            let svc = svcs[a.service];
            let n_ops = lib.graph(svc.model, input).len();
            let q = Query::new(i as u64, svc.model, input, a.at_ms, svc.qos_ms, n_ops);
            server.admit(q, &mut io);
        }
        for c in cuts {
            server.advance(c, &mut io);
        }
        server.drain(&mut io);
        server.records
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        /// The tie rule makes the server cut-invariant: extra `advance`
        /// cut points between admits (the routed cluster's epoch barriers)
        /// leave every record byte-identical to advancing only at arrivals.
        #[test]
        fn extra_advance_cut_points_leave_records_unchanged(
            seed in 0u64..1_000,
            cuts in proptest::collection::vec(0.0f64..1_500.0, 0..48),
            policy in 0u32..4,
        ) {
            let lib = lib();
            let gpu = GpuSpec::a100();
            let svcs = services(&[ModelId::ResNet50, ModelId::Vgg16], &lib, &gpu);
            let wl = mk_workload(&svcs, 80.0, 1_000.0, &lib, seed);
            let mut cuts = cuts;
            cuts.sort_by(f64::total_cmp);
            // Abacus (admit/retire hooks), FCFS, Abacus with timeouts, and
            // an FCFS that idles.
            let opts = NodeOptions {
                timeout_factor: (policy == 2).then_some(1.0),
            };
            let run = |cuts: &[f64]| {
                let mut exec =
                    SegmentalExecutor::new(gpu.clone(), NoiseModel::calibrated(), lib.clone(), seed);
                let fcfs = BaselineScheduler::new(BaselinePolicy::Fcfs, lib.clone(), gpu.clone());
                let mut sched: Box<dyn Scheduler> = match policy {
                    1 => Box::new(fcfs),
                    3 => Box::new(FlakyScheduler { inner: fcfs, calls: 0 }),
                    _ => {
                        let model = Arc::new(SpanModel::solo_weighted(&lib, &gpu));
                        let cfg = AbacusConfig {
                            predict_round_ms: Some(0.08),
                            ..AbacusConfig::default()
                        };
                        Box::new(AbacusScheduler::new(model, lib.clone(), cfg))
                    }
                };
                let io = NodeIo::new(sched.as_mut(), &mut exec);
                serve_with_cuts(io, &lib, &svcs, &wl, opts, cuts)
            };
            let at_arrivals = run(&[]);
            proptest::prop_assert_eq!(at_arrivals.len(), wl.len());
            proptest::prop_assert_eq!(run(&cuts), at_arrivals);
        }
    }

    /// A cluster-held server (model-index labels, advanced at every
    /// arrival and at epoch barriers) over a scheduler that neither plans
    /// nor drops: it parks instead of spinning while admits can still
    /// come, and at drain the livelock guard retires everything as
    /// `TimedOut` and flags the stall.
    #[test]
    fn cluster_held_server_evicts_a_stalled_scheduler_at_drain() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::Bert, ModelId::ResNet50], &lib, &gpu);
        let wl = mk_workload(&svcs, 10.0, 500.0, &lib, 9);
        assert!(!wl.is_empty());
        let mut sched = StallScheduler;
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 1);
        let mut checker = InvariantChecker::new();
        let mut io = NodeIo {
            checker: Some(&mut checker),
            ..NodeIo::new(&mut sched, &mut exec)
        };
        let mut server = NodeServer::by_model();
        for (i, (a, &input)) in wl.arrivals.iter().zip(&wl.inputs).enumerate() {
            server.advance(a.at_ms, &mut io);
            let svc = svcs[a.service];
            let n_ops = lib.graph(svc.model, input).len();
            let q = Query::new(i as u64, svc.model, input, a.at_ms, svc.qos_ms, n_ops);
            server.admit(q, &mut io);
            server.advance(a.at_ms + 50.0, &mut io);
        }
        server.advance(1e9, &mut io);
        assert_eq!(server.outstanding(), wl.len(), "parked, nothing retired");
        server.drain(&mut io);
        let mut records = Vec::new();
        server.take_records(&mut records);
        assert_eq!(records.len(), wl.len());
        assert!(records.iter().all(|r| r.outcome == QueryOutcome::TimedOut));
        assert!(records
            .iter()
            .all(|r| r.service == ModelId::Bert.index() || r.service == ModelId::ResNet50.index()));
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.contains("livelock guard")));
    }
}
