//! Headroom-scored cluster routing over heterogeneous GPU pools.
//!
//! The round-robin + least-connections ingress in [`crate::sim`] is
//! load-signal-free: it never asks *when* a candidate GPU could actually
//! finish the query. This module replaces it with the predicted-latency
//! design llm-d's Endpoint Picker ships for LLM pods, specialised to the
//! paper's deterministic-overlap predictor:
//!
//! * **Scoring.** Per arriving query, every active GPU is scored by
//!   predicted QoS headroom: the query's Eq. 2 budget minus the GPU's
//!   estimated queue wait minus the predicted service latency on that
//!   GPU's hardware ([`abacus_core::Query::routing_headroom_ms`]). All N
//!   candidate features are encoded into one contiguous buffer and scored
//!   with **one** batched
//!   [`predict_derated_into`](LatencyModel::predict_derated_into) forward
//!   — N-GPU scoring is one matrix pass, never N scalar forwards.
//! * **Shed / spill.** When no GPU has headroom, a query whose best
//!   predicted completion misses its deadline by at most
//!   [`RoutedClusterConfig::spill_slack_ms`] spills to a weighted pool
//!   favouring lower predicted completion (the predictor is conservative;
//!   near-misses often still make QoS). Anything worse is shed at ingress
//!   — the cluster refuses work it cannot finish instead of melting its
//!   per-GPU schedulers with doomed queries.
//! * **Heterogeneous pools.** Each [`NodePool`] carries its own
//!   [`GpuSpec`]; the router scores with a single reference predictor and
//!   per-GPU derate factors ([`derate_of`]), while each pool's in-node
//!   Abacus schedulers get their own (possibly derated) predictor.
//! * **Determinism.** Global routing couples the GPUs, so the simulation
//!   is *epoch-batched*: arrivals inside one epoch are routed serially
//!   against the router's mirrors, then every GPU simulates the epoch
//!   independently (fanned out over threads when
//!   [`RoutedClusterConfig::parallel`]), and the mirrors re-sync from
//!   actual GPU state at the epoch boundary. Serial and parallel runs are
//!   byte-identical — the PR 2/PR 6 contract, kept.
//!
//! All per-arrival router state lives in a persistent [`RouterScratch`];
//! a steady-state routing decision allocates nothing.

use crate::autoscale::{AutoscaleStats, PredictiveAutoscaler};
use crate::sim::{cluster_query, record_of, shared_workload, ClusterGpu, GpuUsage};
use abacus_core::{AbacusConfig, Query};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::{
    encode_features_with_ops, DeratedModel, GroupEntry, LatencyModel, FEATURE_DIM, MODEL_SLOT_BASE,
    SLOT_WIDTH,
};
use std::sync::Arc;
use telemetry::{Counter, Hist, Telemetry};
use workload::{fork_seed, Arrival, RateTrace, SeededRng};

/// A homogeneous slice of the fleet: `gpus` identical GPUs of one spec.
#[derive(Debug, Clone)]
pub struct NodePool {
    /// Display label ("a100", "mig-2g" ...).
    pub name: &'static str,
    /// GPUs in this pool.
    pub gpus: usize,
    /// The hardware every GPU in the pool runs.
    pub gpu: GpuSpec,
}

/// Latency multiplier of `gpu` relative to `reference`: how much longer
/// the same operator group takes on `gpu` than on the hardware the
/// router's predictor was trained on. Roofline-pessimistic — the slower of
/// the compute and bandwidth ratios dominates.
pub fn derate_of(gpu: &GpuSpec, reference: &GpuSpec) -> f64 {
    let d = (reference.peak_flops / gpu.peak_flops).max(reference.peak_bw / gpu.peak_bw);
    assert!(d.is_finite() && d > 0.0, "degenerate derate {d}");
    d
}

/// Configuration of a routed (headroom-scored) cluster run.
#[derive(Debug, Clone)]
pub struct RoutedClusterConfig {
    /// Heterogeneous fleet, flattened to GPUs in pool order.
    pub pools: Vec<NodePool>,
    /// The hardware the router's predictor is calibrated to; per-pool
    /// derates are computed against it.
    pub reference: GpuSpec,
    /// Deployed services.
    pub models: Vec<ModelId>,
    /// Uniform QoS target, ms.
    pub qos_ms: f64,
    /// Aggregate offered load (split evenly across services — same
    /// derivation as [`crate::cluster_workload`]).
    pub trace: RateTrace,
    /// Seed for arrivals, inputs, execution noise and the spill draw.
    pub seed: u64,
    /// Per-GPU Abacus controller settings. Pin `predict_round_ms` for
    /// reproducible runs.
    pub abacus: AbacusConfig,
    /// Fan per-GPU epoch simulation out over threads. Byte-identical to
    /// the serial run by the epoch-batching construction.
    pub parallel: bool,
    /// Routing epoch, ms: arrivals within one epoch are routed against
    /// start-of-epoch GPU state plus the router's own incremental
    /// estimates. Smaller = fresher mirrors, more sync barriers.
    pub epoch_ms: f64,
    /// Spill band, ms: a query whose *best* predicted completion misses
    /// its deadline by at most this much is still admitted (weighted
    /// toward lower predicted completion); beyond it the query is shed.
    pub spill_slack_ms: f64,
    /// Predictive autoscaler; `None` keeps the whole fleet active.
    pub autoscale: Option<PredictiveAutoscaler>,
}

impl RoutedClusterConfig {
    /// The paper's §7.6 fleet (16 V100s) behind the headroom router.
    pub fn paper(trace: RateTrace, seed: u64) -> Self {
        Self {
            pools: vec![NodePool {
                name: "v100",
                gpus: 16,
                gpu: GpuSpec::v100(),
            }],
            reference: GpuSpec::v100(),
            models: vec![
                ModelId::ResNet101,
                ModelId::ResNet152,
                ModelId::Vgg19,
                ModelId::Bert,
            ],
            qos_ms: 100.0,
            trace,
            seed,
            abacus: AbacusConfig::default(),
            parallel: true,
            epoch_ms: 50.0,
            spill_slack_ms: 20.0,
            autoscale: None,
        }
    }

    /// Total GPU count across pools.
    pub fn total_gpus(&self) -> usize {
        self.pools.iter().map(|p| p.gpus).sum()
    }

    /// Per-GPU derates vs [`Self::reference`], flattened in pool order.
    pub fn gpu_derates(&self) -> Vec<f64> {
        self.pools
            .iter()
            .flat_map(|p| {
                let d = derate_of(&p.gpu, &self.reference);
                std::iter::repeat_n(d, p.gpus)
            })
            .collect()
    }
}

/// Router decision for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Placed on the GPU with the best (non-negative) predicted headroom.
    Route(usize),
    /// No GPU had headroom; admitted to this GPU via the weighted
    /// overflow pool.
    Spill(usize),
    /// Predicted to miss its deadline everywhere by more than the spill
    /// slack; refused at ingress.
    Shed,
}

/// Router decision counts over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Arrivals placed by headroom score.
    pub routed: u64,
    /// Arrivals admitted through the weighted overflow pool.
    pub spilled: u64,
    /// Arrivals refused at ingress.
    pub shed: u64,
    /// Batched scoring forwards issued (one per scored arrival).
    pub forwards: u64,
}

/// The representative in-flight query mirrored per GPU: the most urgent
/// incomplete queue entry at the last sync (or the last routed arrival).
/// Candidate features pair the arriving query against it, so the predicted
/// service latency reflects the co-location the query actually lands in.
#[derive(Debug, Clone, Copy)]
pub struct NodeHead {
    /// Model of the representative query.
    pub model: ModelId,
    /// Its input.
    pub input: QueryInput,
    /// First operator still to run.
    pub next_op: usize,
    /// Operators in its graph.
    pub n_ops: usize,
}

impl NodeHead {
    /// The head's mirror of an arriving (unstarted) query.
    fn of(q: &Query) -> Self {
        Self {
            model: q.model,
            input: q.input,
            next_op: q.next_op,
            n_ops: q.n_ops,
        }
    }
}

/// All router state, persistent across arrivals — scores, candidate
/// features and the per-GPU outstanding/free-at mirrors, in the style of
/// the scheduler's `DecisionScratch`. Buffers are sized once for the fleet
/// and reused; a steady-state [`HeadroomRouter::route`] allocates nothing.
#[derive(Debug)]
pub struct RouterScratch {
    /// Candidate feature rows, `cand.len() × FEATURE_DIM`.
    features: Vec<f64>,
    /// Arrival-only base row with the arrival in slot 0 (solo rows and
    /// pairs whose head has a higher model index copy this).
    base_lo: Vec<f64>,
    /// Arrival-only base row with the arrival in slot 1 (pairs whose head
    /// has a lower model index copy this).
    base_hi: Vec<f64>,
    /// Batched predictions, parallel to `cand` (derate-scaled).
    preds: Vec<f64>,
    /// Headroom scores, parallel to `cand`.
    scores: Vec<f64>,
    /// Derates gathered in candidate order (the batched forward's input).
    cand_derates: Vec<f64>,
    /// GPU index of each scored candidate.
    cand: Vec<usize>,
    /// Mirror: queries outstanding per GPU.
    outstanding: Vec<u32>,
    /// Mirror: estimated time each GPU frees, ms.
    est_free_ms: Vec<f64>,
    /// Mirror: representative in-flight query per GPU.
    head: Vec<Option<NodeHead>>,
    /// Whether each GPU accepts new routes (autoscaler-controlled).
    active: Vec<bool>,
    /// Per-GPU latency derate vs the router predictor's hardware.
    derate: Vec<f64>,
}

impl RouterScratch {
    fn new(derates: Vec<f64>) -> Self {
        let n = derates.len();
        assert!(n > 0, "a cluster needs at least one GPU");
        Self {
            features: Vec::with_capacity(n * FEATURE_DIM),
            base_lo: vec![0.0; FEATURE_DIM],
            base_hi: vec![0.0; FEATURE_DIM],
            preds: Vec::with_capacity(n),
            scores: Vec::with_capacity(n),
            cand_derates: Vec::with_capacity(n),
            cand: Vec::with_capacity(n),
            outstanding: vec![0; n],
            est_free_ms: vec![0.0; n],
            head: vec![None; n],
            active: vec![true; n],
            derate: derates,
        }
    }
}

/// The headroom-scored ingress router.
pub struct HeadroomRouter {
    model: Arc<dyn LatencyModel>,
    spill_slack_ms: f64,
    scratch: RouterScratch,
    rng: SeededRng,
    stats: RouterStats,
}

impl HeadroomRouter {
    /// Create a router over `derates.len()` GPUs. `model` must be
    /// calibrated to the hardware the derates are relative to; `seed`
    /// drives only the weighted spill draw.
    pub fn new(
        model: Arc<dyn LatencyModel>,
        derates: Vec<f64>,
        spill_slack_ms: f64,
        seed: u64,
    ) -> Self {
        assert!(spill_slack_ms >= 0.0, "spill slack must be non-negative");
        Self {
            model,
            spill_slack_ms,
            scratch: RouterScratch::new(derates),
            rng: SeededRng::new(seed),
            stats: RouterStats::default(),
        }
    }

    /// Decision counts so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Mirror of queries outstanding on `gpu`.
    pub fn outstanding(&self, gpu: usize) -> u32 {
        self.scratch.outstanding[gpu]
    }

    /// Enable/disable `gpu` as a routing candidate (autoscaler hook; a
    /// disabled GPU drains but receives nothing new).
    pub fn set_active(&mut self, gpu: usize, on: bool) {
        self.scratch.active[gpu] = on;
    }

    /// Whether `gpu` currently accepts routes.
    pub fn is_active(&self, gpu: usize) -> bool {
        self.scratch.active[gpu]
    }

    /// GPUs currently accepting routes.
    pub fn active_gpus(&self) -> usize {
        self.scratch.active.iter().filter(|a| **a).count()
    }

    /// Re-anchor `gpu`'s mirror from its actual simulation state (epoch
    /// boundary): queue depth, when it frees, and its most urgent
    /// incomplete query.
    pub fn sync(&mut self, gpu: usize, outstanding: u32, free_at_ms: f64, head: Option<NodeHead>) {
        self.scratch.outstanding[gpu] = outstanding;
        self.scratch.est_free_ms[gpu] = free_at_ms;
        self.scratch.head[gpu] = head;
    }

    /// Route one arrival at time `t_ms`. Scores every active GPU with one
    /// batched forward, updates the winning GPU's mirror, and returns
    /// where the query went. Steady-state allocation-free.
    ///
    /// Predicted latencies are assumed non-negative, which licenses an
    /// overload fast-path: when queue wait alone pushes every active GPU
    /// past the spill slack (`qos − elapsed − wait < −slack`), the verdict
    /// is shed for *any* non-negative prediction, so the router sheds
    /// without encoding candidates or running the forward. Scored
    /// arrivals always use exactly one batched forward.
    pub fn route(&mut self, t_ms: f64, q: &Query, mut tel: Option<&mut Telemetry>) -> RouteOutcome {
        let s = &mut self.scratch;
        let mut min_wait = f64::INFINITY;
        for g in 0..s.active.len() {
            if s.active[g] {
                min_wait = min_wait.min((s.est_free_ms[g] - t_ms).max(0.0));
            }
        }
        if q.routing_headroom_ms(t_ms, min_wait, 0.0) < -self.spill_slack_ms {
            // Covers "no active GPU" too: min_wait stays +inf.
            self.stats.shed += 1;
            if let Some(t) = tel.as_deref_mut() {
                t.registry.inc(Counter::RouterShed);
            }
            return RouteOutcome::Shed;
        }
        s.cand.clear();
        s.cand_derates.clear();
        s.features.clear();
        // Every candidate row shares the arrival's half; encode it once
        // into the two slot positions it can occupy (slots are laid out in
        // model-index order) and build each row as a copy plus the head's
        // ~5-float contribution. Bit-identical to a per-row
        // `encode_features_with_ops` — debug builds assert it below.
        encode_features_with_ops(
            &[GroupEntry {
                model: q.model,
                op_start: q.next_op,
                op_end: q.n_ops,
                input: q.input,
            }],
            &[q.n_ops],
            &mut s.base_lo,
        );
        s.base_hi.fill(0.0);
        s.base_hi[q.model.index()] = 1.0;
        let slot1 = MODEL_SLOT_BASE + SLOT_WIDTH;
        s.base_hi[slot1..slot1 + SLOT_WIDTH]
            .copy_from_slice(&s.base_lo[MODEL_SLOT_BASE..MODEL_SLOT_BASE + SLOT_WIDTH]);
        for g in 0..s.active.len() {
            if !s.active[g] {
                continue;
            }
            s.cand.push(g);
            s.cand_derates.push(s.derate[g]);
            let at = s.features.len();
            // Pair the arrival against the GPU's representative in-flight
            // query when they can actually overlap; otherwise score the
            // solo group. Same-model pairs never co-locate (one query per
            // service), so they score solo too.
            match s.head[g] {
                Some(h) if h.model != q.model && h.next_op < h.n_ops => {
                    let (base, head_slot) = if q.model.index() < h.model.index() {
                        (&s.base_lo, slot1)
                    } else {
                        (&s.base_hi, MODEL_SLOT_BASE)
                    };
                    s.features.extend_from_slice(base);
                    let row = &mut s.features[at..];
                    row[h.model.index()] = 1.0;
                    let nh = h.n_ops as f64;
                    row[head_slot] = h.next_op as f64 / nh;
                    row[head_slot + 1] = 1.0;
                    row[head_slot + 2] = f64::from(h.input.batch) / 32.0;
                    row[head_slot + 3] = f64::from(h.input.seq) / 64.0;
                    #[cfg(debug_assertions)]
                    {
                        let entries = [
                            GroupEntry {
                                model: q.model,
                                op_start: q.next_op,
                                op_end: q.n_ops,
                                input: q.input,
                            },
                            GroupEntry {
                                model: h.model,
                                op_start: h.next_op,
                                op_end: h.n_ops,
                                input: h.input,
                            },
                        ];
                        let mut full = vec![0.0; FEATURE_DIM];
                        encode_features_with_ops(&entries, &[q.n_ops, h.n_ops], &mut full);
                        debug_assert_eq!(&s.features[at..], &full[..], "patched row diverged");
                    }
                }
                _ => {
                    s.features.extend_from_slice(&s.base_lo);
                }
            }
        }
        let n = s.cand.len();
        if n == 0 {
            self.stats.shed += 1;
            if let Some(t) = tel.as_deref_mut() {
                t.registry.inc(Counter::RouterShed);
            }
            return RouteOutcome::Shed;
        }
        // THE batched forward: one matrix pass scores all N candidates.
        self.model
            .predict_derated_into(&s.features, n, &s.cand_derates, &mut s.preds);
        self.stats.forwards += 1;
        s.scores.clear();
        let headroom = q.headroom_ms(t_ms);
        let mut best = 0usize;
        let mut worst_score = f64::INFINITY;
        for k in 0..n {
            let g = s.cand[k];
            let wait = (s.est_free_ms[g] - t_ms).max(0.0);
            let score = q.routing_headroom_ms(t_ms, wait, s.preds[k]);
            s.scores.push(score);
            if score < worst_score {
                worst_score = score;
            }
            // Max score; ties prefer fewer outstanding, then lower index —
            // the least-connections order the proptest pins for
            // homogeneous pools.
            let better = score > s.scores[best]
                || (score == s.scores[best]
                    && (s.outstanding[g], g) < (s.outstanding[s.cand[best]], s.cand[best]));
            if better {
                best = k;
            }
        }
        if let Some(t) = tel.as_deref_mut() {
            t.registry.inc(Counter::RouterForwards);
            t.registry
                .observe(Hist::RouterScoreSpreadMs, s.scores[best] - worst_score);
        }
        let (k, outcome) = if s.scores[best] >= 0.0 {
            self.stats.routed += 1;
            if let Some(t) = tel.as_deref_mut() {
                t.registry.inc(Counter::RouterRouted);
            }
            (best, RouteOutcome::Route(s.cand[best]))
        } else if s.scores[best] >= -self.spill_slack_ms {
            // Weighted overflow pool: draw a GPU with probability inversely
            // proportional to its predicted completion (wait + service =
            // headroom − score), favouring the least-bad candidates.
            let weight = |k: usize| 1.0 / (1e-3 + (headroom - s.scores[k]).max(0.0));
            let total: f64 = (0..n).map(weight).sum();
            let mut u = self.rng.f64() * total;
            let mut pick = n - 1;
            for k in 0..n {
                u -= weight(k);
                if u <= 0.0 {
                    pick = k;
                    break;
                }
            }
            self.stats.spilled += 1;
            if let Some(t) = tel.as_deref_mut() {
                t.registry.inc(Counter::RouterSpilled);
            }
            (pick, RouteOutcome::Spill(s.cand[pick]))
        } else {
            self.stats.shed += 1;
            if let Some(t) = tel {
                t.registry.inc(Counter::RouterShed);
            }
            return RouteOutcome::Shed;
        };
        // Commit the placement to the mirrors: one more outstanding query,
        // the free horizon extends by its predicted service time, and the
        // arrival becomes the GPU's representative.
        let g = s.cand[k];
        s.outstanding[g] += 1;
        s.est_free_ms[g] = s.est_free_ms[g].max(t_ms) + s.preds[k];
        s.head[g] = Some(NodeHead::of(q));
        outcome
    }
}

/// The full outcome of a routed cluster run.
#[derive(Debug, Clone)]
pub struct RoutedRunResult {
    /// One record per query: per-GPU completions/drops in GPU order, then
    /// ingress sheds (each stream in event order).
    pub records: Vec<QueryRecord>,
    /// Usage per GPU, pool-flattened index order.
    pub gpu_usage: Vec<GpuUsage>,
    /// Router decision counts.
    pub router: RouterStats,
    /// Autoscaler activity (fleet-sized mean when disabled).
    pub autoscale: AutoscaleStats,
}

/// Run the headroom-routed cluster. `router_model` scores candidates on
/// [`RoutedClusterConfig::reference`] hardware; `pool_models` (parallel to
/// `cfg.pools`) drive the in-node Abacus schedulers — pass `None` to
/// derive them from `router_model` via per-pool [`DeratedModel`]s.
pub fn run_routed_cluster(
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    noise: &NoiseModel,
    router_model: Arc<dyn LatencyModel>,
    pool_models: Option<&[Arc<dyn LatencyModel>]>,
    telemetry: Option<&mut Telemetry>,
) -> RoutedRunResult {
    let (arrivals, inputs) = shared_workload(&cfg.models, &cfg.trace, cfg.seed, lib);
    run_routed_cluster_on(
        cfg,
        lib,
        noise,
        router_model,
        pool_models,
        telemetry,
        &arrivals,
        &inputs,
    )
}

/// [`run_routed_cluster`] over a caller-supplied workload (the same
/// `(arrivals, inputs)` that [`crate::cluster_workload`] derives) —
/// benchmarks generate the trace once and time only the routed run.
#[allow(clippy::too_many_arguments)]
pub fn run_routed_cluster_on(
    cfg: &RoutedClusterConfig,
    lib: &Arc<ModelLibrary>,
    noise: &NoiseModel,
    router_model: Arc<dyn LatencyModel>,
    pool_models: Option<&[Arc<dyn LatencyModel>]>,
    mut telemetry: Option<&mut Telemetry>,
    arrivals: &[Arrival],
    inputs: &[QueryInput],
) -> RoutedRunResult {
    if let Some(ms) = pool_models {
        assert_eq!(ms.len(), cfg.pools.len(), "one scheduler model per pool");
    }
    assert_eq!(arrivals.len(), inputs.len(), "one input per arrival");
    let derates = cfg.gpu_derates();
    let n_gpus = derates.len();
    let derived: Vec<Arc<dyn LatencyModel>>;
    let pool_models: &[Arc<dyn LatencyModel>] = match pool_models {
        Some(ms) => ms,
        None => {
            derived = cfg
                .pools
                .iter()
                .map(|p| {
                    let d = derate_of(&p.gpu, &cfg.reference);
                    Arc::new(DeratedModel::new(router_model.clone(), d)) as Arc<dyn LatencyModel>
                })
                .collect();
            &derived
        }
    };
    // Every GPU runs the same serving loop as a single node
    // (`serving::NodeServer`): `decide_into` with admit/retire hooks, so the
    // scheduler's incremental order index and entry-buffer recycling stay
    // engaged, and the livelock guard bounds a stalled scheduler.
    let mut sims: Vec<ClusterGpu> = Vec::with_capacity(n_gpus);
    for (p, pool) in cfg.pools.iter().enumerate() {
        for _ in 0..pool.gpus {
            let seed = fork_seed(cfg.seed, 0xE000 + sims.len() as u64);
            let model = pool_models[p].clone();
            sims.push(ClusterGpu::new(
                model,
                &cfg.abacus,
                lib,
                pool.gpu.clone(),
                noise,
                seed,
            ));
        }
    }
    let mut router = HeadroomRouter::new(
        router_model,
        derates.clone(),
        cfg.spill_slack_ms,
        fork_seed(cfg.seed, 0x5B111),
    );
    // Autoscaler priority: fastest (lowest-derate) GPUs first, index as
    // the deterministic tie-break.
    let mut priority: Vec<usize> = (0..n_gpus).collect();
    priority.sort_by(|&a, &b| derates[a].total_cmp(&derates[b]).then(a.cmp(&b)));
    let mut scale = AutoscaleStats::default();
    let mut shed_records: Vec<QueryRecord> = Vec::new();
    let horizon = cfg.trace.horizon_ms();
    assert!(cfg.epoch_ms > 0.0, "epoch must be positive");
    let epochs = ((horizon / cfg.epoch_ms).ceil() as usize).max(1);
    let mut next = 0usize;
    // Epoch `epochs` is the drain: no arrivals left, run queues dry.
    for e in 0..=epochs {
        let t_start = e as f64 * cfg.epoch_ms;
        let t_end = if e == epochs {
            f64::INFINITY
        } else {
            (e + 1) as f64 * cfg.epoch_ms
        };
        if let Some(sc) = &cfg.autoscale {
            let needed = sc.needed_capacity(&cfg.trace, t_start);
            let mut cum = 0.0;
            let mut on = 0usize;
            for &g in &priority {
                let activate = on < sc.min_gpus || cum < needed;
                if activate {
                    cum += 1.0 / derates[g];
                    on += 1;
                }
                if router.is_active(g) != activate {
                    if activate {
                        scale.up_events += 1;
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.registry.inc(Counter::AutoscaleUpEvents);
                        }
                    } else {
                        scale.down_events += 1;
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.registry.inc(Counter::AutoscaleDownEvents);
                        }
                    }
                    router.set_active(g, activate);
                }
            }
        }
        scale.mean_active_gpus += router.active_gpus() as f64 / (epochs + 1) as f64;
        // Serial routing pass over this epoch's arrivals.
        while next < arrivals.len() && arrivals[next].at_ms < t_end {
            let a = &arrivals[next];
            let q = cluster_query(next, a, inputs[next], &cfg.models, cfg.qos_ms, lib);
            match router.route(a.at_ms, &q, telemetry.as_deref_mut()) {
                RouteOutcome::Route(g) | RouteOutcome::Spill(g) => sims[g].inbox.push(q),
                RouteOutcome::Shed => shed_records.push(record_of(&q, 0.0, QueryOutcome::Dropped)),
            }
            next += 1;
        }
        // Independent per-GPU simulation of the epoch — the parallel
        // fan-out. GPU order is restored by the indexed collect, so the
        // serial and parallel paths produce identical state.
        let step = |mut s: ClusterGpu| -> ClusterGpu {
            for q in std::mem::take(&mut s.inbox) {
                s.advance(q.arrival_ms);
                s.admit(q);
            }
            if e == epochs {
                s.drain();
            } else {
                s.advance(t_end);
            }
            s
        };
        let owned = std::mem::take(&mut sims);
        sims = if cfg.parallel && rayon::worth_fanning_out(owned.len()) {
            use rayon::prelude::*;
            owned.into_par_iter().map(step).collect()
        } else {
            owned.into_iter().map(step).collect()
        };
        // Epoch barrier: re-anchor the router's mirrors on actual state.
        for (g, s) in sims.iter().enumerate() {
            let head = s.server.head().map(NodeHead::of);
            router.sync(g, s.server.outstanding() as u32, s.server.now(), head);
        }
    }
    debug_assert!(next == arrivals.len(), "arrivals routed past the horizon");
    let mut records = Vec::with_capacity(arrivals.len());
    let mut gpu_usage = Vec::with_capacity(n_gpus);
    for s in &mut sims {
        assert_eq!(s.server.outstanding(), 0, "drain epoch left queries behind");
        s.server.take_records(&mut records);
        gpu_usage.push(s.server.usage());
    }
    records.append(&mut shed_records);
    assert_eq!(
        records.len(),
        arrivals.len(),
        "every arrival must be accounted exactly once"
    );
    if let Some(t) = telemetry {
        if let Some(h) = t.health_mut() {
            // Per-GPU sims retire queries on their own clocks; the burn-rate
            // windows need one global stream, so replay the outcomes in
            // retire-time order. The sort key is fully determined by the
            // records (ties broken by service, arrival, then the records'
            // own deterministic serial≡parallel order), so the resulting
            // alert stream is byte-reproducible.
            let mut order: Vec<usize> = (0..records.len()).collect();
            order.sort_by(|&a, &b| {
                let (ra, rb) = (&records[a], &records[b]);
                (ra.arrival_ms + ra.latency_ms)
                    .total_cmp(&(rb.arrival_ms + rb.latency_ms))
                    .then(ra.service.cmp(&rb.service))
                    .then(ra.arrival_ms.total_cmp(&rb.arrival_ms))
                    .then(a.cmp(&b))
            });
            for &i in &order {
                let r = &records[i];
                h.note_service(r.service, r.qos_ms);
                h.observe_query(r.arrival_ms + r.latency_ms, r.service, !r.met_qos());
            }
        }
    }
    RoutedRunResult {
        records,
        gpu_usage,
        router: router.stats(),
        autoscale: scale,
    }
}

/// Write per-query records as CSV — the byte-identity surface the
/// serial-vs-parallel contract is checked on.
pub fn write_records_csv(path: &std::path::Path, records: &[QueryRecord]) -> std::io::Result<()> {
    let mut csv = abacus_metrics::CsvWriter::create(
        path,
        &[
            "service",
            "arrival_ms",
            "latency_ms",
            "qos_ms",
            "outcome",
            "requests",
            "queue_ms",
        ],
    )?;
    for r in records {
        csv.write_row([
            r.service.to_string(),
            format!("{:.6}", r.arrival_ms),
            format!("{:.6}", r.latency_ms),
            format!("{:.3}", r.qos_ms),
            format!("{:?}", r.outcome),
            r.requests.to_string(),
            format!("{:.6}", r.queue_ms),
        ])?;
    }
    csv.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derates_are_roofline_pessimistic() {
        let v100 = GpuSpec::v100();
        let a100 = GpuSpec::a100();
        assert!((derate_of(&v100, &v100) - 1.0).abs() < 1e-12);
        // A100 is faster than V100 → derate < 1; the reverse > 1.
        assert!(derate_of(&a100, &v100) < 1.0);
        assert!(derate_of(&v100, &a100) > 1.0);
        // A MIG slice of an A100 is slower than the V100 reference.
        let mig = GpuSpec::a100().mig_slice(gpu_sim::MigProfile::TwoG10Gb);
        assert!(derate_of(&mig, &v100) > 1.0);
    }

    #[test]
    fn heterogeneous_config_flattens_derates_in_pool_order() {
        let trace = RateTrace::new(vec![10.0]);
        let mut cfg = RoutedClusterConfig::paper(trace, 1);
        cfg.pools = vec![
            NodePool {
                name: "a100",
                gpus: 2,
                gpu: GpuSpec::a100(),
            },
            NodePool {
                name: "v100",
                gpus: 1,
                gpu: GpuSpec::v100(),
            },
        ];
        let d = cfg.gpu_derates();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0], d[1]);
        assert!(d[0] < 1.0);
        assert!((d[2] - 1.0).abs() < 1e-12);
    }

    /// Constant-latency model: every group predicts `c` ms.
    struct ConstModel(f64);
    impl LatencyModel for ConstModel {
        fn predict_one(&self, _x: &[f64]) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    fn test_query(id: u64, t: f64) -> Query {
        Query::new(id, ModelId::ResNet50, QueryInput::new(4, 1), t, 100.0, 10)
    }

    #[test]
    fn router_sheds_when_nothing_can_finish() {
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(500.0)), vec![1.0; 4], 20.0, 7);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Shed);
        assert_eq!(r.stats().shed, 1);
        assert_eq!(r.stats().forwards, 1);
    }

    #[test]
    fn router_spills_inside_the_slack_band() {
        // Predicted completion misses the 100 ms deadline by 10 ms —
        // inside the 20 ms spill band.
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(110.0)), vec![1.0; 4], 20.0, 7);
        let q = test_query(0, 0.0);
        match r.route(0.0, &q, None) {
            RouteOutcome::Spill(g) => assert!(g < 4),
            other => panic!("expected spill, got {other:?}"),
        }
        assert_eq!(r.stats().spilled, 1);
    }

    #[test]
    fn router_prefers_the_idle_gpu() {
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(10.0)), vec![1.0; 3], 20.0, 7);
        // GPU 0 and 2 busy until t=40; GPU 1 idle.
        r.sync(0, 3, 40.0, None);
        r.sync(2, 1, 40.0, None);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Route(1));
        // Mirror updated: GPU 1 now has one outstanding, frees at 10 ms.
        assert_eq!(r.outstanding(1), 1);
    }

    #[test]
    fn inactive_gpus_are_never_candidates() {
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(10.0)), vec![1.0; 2], 20.0, 7);
        r.set_active(0, false);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Route(1));
        r.set_active(1, false);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Shed);
        assert_eq!(r.active_gpus(), 0);
    }

    #[test]
    fn derates_steer_routing_toward_faster_hardware() {
        // Same mirrors, but GPU 1 is 3× slower hardware: the idle-equal
        // cluster must route to the fast GPU 0.
        let mut r = HeadroomRouter::new(Arc::new(ConstModel(30.0)), vec![1.0, 3.0], 20.0, 7);
        let q = test_query(0, 0.0);
        assert_eq!(r.route(0.0, &q, None), RouteOutcome::Route(0));
    }
}
