//! Golden decision-stream tests (DESIGN.md §12).
//!
//! The per-round decision hot path — incremental `(deadline, id)` order
//! index, arena-backed scratch, recycled entry buffers, template-patched
//! probe encoding — must be *bit-identical* to the pre-overhaul decision
//! layer it replaced. Three layers pin that:
//!
//! 1. `reference::decision::plan_group` is the pre-overhaul search: fresh
//!    buffers per call and every probe encoded from scratch. A fixture
//!    grid of queues, budgets, widths and span costs asserts
//!    [`plan_group`] reports byte-identical plans and round counts.
//! 2. `reference::decision::BaselineController` is the pre-overhaul
//!    `AbacusScheduler::decide` (fresh `Vec<&Query>` collect + per-round
//!    headroom sort + retain passes + `sorted.remove(0)` drop loop) on top
//!    of that search. A fixed-seed churned replay asserts equal
//!    [`RoundDecision`] streams round by round.
//! 3. Property tests over grid-quantised random queues assert that the
//!    incremental order (admit/retire hooks driven), the full re-sort
//!    fallback (hooks skipped → rebuild) and the reference controller
//!    decide identically — including empty queues, headroom ties, expired
//!    queries, and all-infeasible rounds under a frozen or NaN predictor.
//!
//! Arrival/QoS values are grid-quantised (multiples of 2.5 ms): subtracting
//! `now` from grid values is exact in f64, so the former headroom sort and
//! the deadline order cannot diverge by rounding — the §12 order-key
//! invariance contract these tests pin.

use abacus_core::{plan_group, AbacusConfig, AbacusScheduler, Query, RoundDecision, Scheduler};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use predictor::LatencyModel;
use proptest::prelude::*;
use reference::decision::{self, BaselineController};
use reference::{Lcg, SpanModel};
use std::sync::Arc;

const PREDICT_ROUND_MS: f64 = 0.09;

/// A predictor frozen at a constant (possibly NaN / absurdly high):
/// misprediction injection's worst case — every round is infeasible.
struct FrozenModel(f64);

impl LatencyModel for FrozenModel {
    fn predict_one(&self, _: &[f64]) -> f64 {
        self.0
    }
    fn name(&self) -> &'static str {
        "frozen"
    }
}

fn config() -> AbacusConfig {
    AbacusConfig {
        predict_round_ms: Some(PREDICT_ROUND_MS),
        ..AbacusConfig::default()
    }
}

fn lib() -> Arc<ModelLibrary> {
    Arc::new(ModelLibrary::new())
}

fn query(lib: &ModelLibrary, id: u64, model: ModelId, arrival: f64, qos: f64) -> Query {
    let input = QueryInput::new(8, if model.is_nlp() { 16 } else { 1 });
    let n = lib.graph(model, input).len();
    Query::new(id, model, input, arrival, qos, n)
}

/// Grid-quantised query from small integer knobs: arrivals and QoS are
/// multiples of 2.5 ms, so headroom subtraction is exact (see module doc).
fn grid_query(
    lib: &ModelLibrary,
    id: u64,
    model_idx: usize,
    arrival_step: usize,
    qos_step: usize,
    progress: f64,
) -> Query {
    let model = ModelId::ALL[model_idx % ModelId::ALL.len()];
    let mut q = query(
        lib,
        id,
        model,
        arrival_step as f64 * 2.5,
        qos_step as f64 * 2.5,
    );
    let next_op = ((q.n_ops - 1) as f64 * progress) as usize;
    q.advance_to(next_op);
    q
}

/// The buffered search must report byte-identical plans and round counts
/// to the reference search over a grid of queues (one to five queries,
/// partial progress), budgets, search widths and span costs.
#[test]
fn golden_matches_prerefactor_reference() {
    let lib = lib();
    let at = |id, model, next_op| {
        let mut q = query(&lib, id, model, 0.0, 100.0);
        q.advance_to(next_op);
        q
    };
    let fixtures: Vec<Vec<Query>> = vec![
        vec![at(0, ModelId::ResNet50, 30)],
        vec![at(0, ModelId::ResNet50, 0)],
        vec![at(0, ModelId::ResNet50, 100), at(1, ModelId::ResNet152, 0)],
        vec![
            at(0, ModelId::ResNet50, 0),
            at(1, ModelId::Bert, 0),
            at(2, ModelId::Vgg16, 0),
        ],
        vec![
            at(0, ModelId::ResNet50, 0),
            at(1, ModelId::ResNet101, 0),
            at(2, ModelId::ResNet152, 0),
            at(3, ModelId::Bert, 0),
            at(4, ModelId::Vgg16, 0),
        ],
    ];
    let budgets = [2.0, 5.0, 7.0, 25.0, 100.0];
    for qs in &fixtures {
        let refs: Vec<&Query> = qs.iter().collect();
        for &budget in &budgets {
            for ways in [1usize, 2, 3, 4, 8, 16] {
                for unit in [0.5, 10.0] {
                    let model = SpanModel::uniform(unit);
                    let got = plan_group(&refs, budget, &model, &lib, ways);
                    let want = decision::plan_group(&refs, budget, &model, &lib, ways);
                    assert_eq!(
                        got,
                        want,
                        "divergence: {} queries, budget {budget}, ways {ways}, unit {unit}",
                        refs.len()
                    );
                }
            }
        }
    }
}

/// Replay a fixed-seed churned workload through the live scheduler (hooks
/// driven, so every round takes the incremental path) and the reference
/// controller, asserting bit-identical decision streams.
#[test]
fn golden_stream_matches_embedded_pre_overhaul_controller() {
    let lib = lib();
    let mut opt = AbacusScheduler::new(Arc::new(SpanModel::uniform(10.0)), lib.clone(), config());
    let mut reference =
        BaselineController::new(Arc::new(SpanModel::uniform(10.0)), lib.clone(), config());

    const QOS_MS: [f64; 4] = [40.0, 60.0, 90.0, 140.0];
    let mut rng = Lcg::new(2021);
    let mut queue: Vec<Query> = Vec::new();
    let mut next_id = 0u64;
    let mut now = 0.0f64;
    let mut decision = RoundDecision::idle();
    let mut planned_rounds = 0u64;

    for round in 0..3_000 {
        // Refill to a 16-deep queue; same-round admits share `arrival = now`
        // so headroom ties are broken by id in both orderings.
        while queue.len() < 16 {
            let m = ModelId::ALL[(rng.draw() as usize) % ModelId::ALL.len()];
            let qos = QOS_MS[(rng.draw() as usize) % QOS_MS.len()];
            let q = query(&lib, next_id, m, now, qos);
            next_id += 1;
            opt.on_admit(&q);
            queue.push(q);
        }

        let want = reference.decide(now, &queue);
        opt.decide_into(now, &queue, &mut decision);
        assert_eq!(decision, want, "decision diverged at round {round}");

        for &id in &decision.dropped {
            let pos = queue.iter().position(|q| q.id == id).unwrap();
            opt.on_retire(&queue[pos]);
            queue.swap_remove(pos);
        }
        now += decision.overhead_ms;
        if let Some(g) = decision.group.as_ref() {
            planned_rounds += 1;
            let duration = g.predicted_ms.max(0.05);
            for e in &g.entries {
                let pos = queue.iter().position(|q| q.id == e.query_id).unwrap();
                queue[pos].mark_started(now);
                queue[pos].advance_to(e.op_end);
                if queue[pos].is_complete() {
                    opt.on_retire(&queue[pos]);
                    queue.swap_remove(pos);
                }
            }
            now += duration;
            opt.on_group_complete(duration);
            reference.on_group_complete(duration);
        } else {
            now += 0.1;
        }
    }

    assert!(
        planned_rounds > 1_000,
        "workload planned {planned_rounds} groups"
    );
    // The hooks were driven every round: the order index never rebuilt.
    let stats = opt.decision_stats();
    assert_eq!(stats.full_rebuilds, 0, "incremental path never used");
    assert_eq!(stats.incremental_rounds, 3_000);
    assert!(stats.order_peak_len >= 16);
    assert!(stats.scratch_peak >= 16);
}

/// Decide one round three ways — incremental order (hooks driven), full
/// rebuild (hooks skipped), reference controller — and demand
/// identical decisions. Proves order-key invariance: the `(deadline, id)`
/// index is the same permutation as the per-round headroom sort.
fn assert_three_way_identical(
    lib: &Arc<ModelLibrary>,
    model: impl Fn() -> Arc<dyn LatencyModel>,
    queue: &[Query],
    now: f64,
) -> RoundDecision {
    let mut incremental = AbacusScheduler::new(model(), lib.clone(), config());
    for q in queue {
        incremental.on_admit(q);
    }
    let mut rebuild = AbacusScheduler::new(model(), lib.clone(), config());
    let mut reference = BaselineController::new(model(), lib.clone(), config());

    let inc = incremental.decide(now, queue);
    let reb = rebuild.decide(now, queue);
    let want = reference.decide(now, queue);
    assert_eq!(inc, want, "incremental order diverged from pre-overhaul");
    assert_eq!(reb, want, "rebuild path diverged from pre-overhaul");
    if !queue.is_empty() {
        assert_eq!(incremental.decision_stats().incremental_rounds, 1);
        assert_eq!(rebuild.decision_stats().full_rebuilds, 1);
    }
    inc
}

fn span_model() -> Arc<dyn LatencyModel> {
    Arc::new(SpanModel::uniform(10.0))
}

#[test]
fn empty_queue_decides_idle_on_every_path() {
    let lib = lib();
    let d = assert_three_way_identical(&lib, span_model, &[], 0.0);
    assert!(d.group.is_none());
    assert!(d.dropped.is_empty());
}

#[test]
fn headroom_ties_break_by_id_on_every_path() {
    let lib = lib();
    // Identical (arrival, qos) across distinct models: pure id tie-break.
    let queue: Vec<Query> = (0..6)
        .map(|i| query(&lib, 10 + i, ModelId::ALL[i as usize], 0.0, 50.0))
        .collect();
    let d = assert_three_way_identical(&lib, span_model, &queue, 5.0);
    let g = d.group.expect("ties still plan");
    assert_eq!(g.entries[0].query_id, 10);
}

#[test]
fn all_infeasible_rounds_drop_identically() {
    let lib = lib();
    let queue: Vec<Query> = (0..5)
        .map(|i| query(&lib, i, ModelId::ALL[i as usize], 0.0, 50.0))
        .collect();
    // Frozen far above every budget: every head is infeasible in turn.
    let d = assert_three_way_identical(&lib, || Arc::new(FrozenModel(1e9)), &queue, 0.0);
    assert!(d.group.is_none());
    assert_eq!(d.dropped.len(), queue.len());
    // NaN predictions must take the same drop path, not plan NaN groups.
    let d = assert_three_way_identical(&lib, || Arc::new(FrozenModel(f64::NAN)), &queue, 0.0);
    assert!(d.group.is_none());
    assert_eq!(d.dropped.len(), queue.len());
}

#[test]
fn expired_queries_drop_identically() {
    let lib = lib();
    let queue = vec![
        query(&lib, 1, ModelId::ResNet50, 0.0, 10.0), // expired at now = 50
        query(&lib, 2, ModelId::Bert, 45.0, 60.0),
    ];
    let d = assert_three_way_identical(&lib, span_model, &queue, 50.0);
    assert_eq!(d.dropped, vec![1]);
    assert!(d.group.is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random grid-quantised queues (duplicate models, partial progress,
    /// expired members, dense ties): the incremental order, the rebuild
    /// fallback and the reference controller agree bit-for-bit.
    #[test]
    fn random_queues_decide_identically(
        specs in proptest::collection::vec(
            (0usize..8, 0usize..12, 1usize..40, 0.0f64..0.95),
            0..24,
        ),
        now_step in 0usize..16,
    ) {
        let lib = lib();
        let queue: Vec<Query> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, arr, qos, progress))| {
                grid_query(&lib, i as u64, m, arr, qos, progress)
            })
            .collect();
        let now = now_step as f64 * 2.5;

        let mut incremental = AbacusScheduler::new(span_model(), lib.clone(), config());
        for q in &queue {
            incremental.on_admit(q);
        }
        let mut rebuild = AbacusScheduler::new(span_model(), lib.clone(), config());
        let mut reference = BaselineController::new(span_model(), lib.clone(), config());

        let inc = incremental.decide(now, &queue);
        let reb = rebuild.decide(now, &queue);
        let want = reference.decide(now, &queue);
        prop_assert_eq!(&inc, &want, "incremental vs pre-overhaul");
        prop_assert_eq!(&reb, &want, "rebuild vs pre-overhaul");
    }

    /// Non-pipelined configs and every search width: the overhead account
    /// and probe sequences stay identical across the three paths.
    #[test]
    fn config_variants_decide_identically(
        specs in proptest::collection::vec(
            (0usize..8, 0usize..6, 4usize..40, 0.0f64..0.9),
            1..12,
        ),
        ways in 1usize..6,
        pipelined_bit in 0usize..2,
    ) {
        let pipelined = pipelined_bit == 1;
        let lib = lib();
        let queue: Vec<Query> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, arr, qos, progress))| {
                grid_query(&lib, i as u64, m, arr, qos, progress)
            })
            .collect();
        let cfg = AbacusConfig {
            ways,
            pipelined,
            predict_round_ms: Some(PREDICT_ROUND_MS),
            ..AbacusConfig::default()
        };

        let mut incremental = AbacusScheduler::new(span_model(), lib.clone(), cfg.clone());
        for q in &queue {
            incremental.on_admit(q);
        }
        let mut reference = BaselineController::new(span_model(), lib.clone(), cfg);

        let inc = incremental.decide(2.5, &queue);
        let want = reference.decide(2.5, &queue);
        prop_assert_eq!(&inc, &want);
    }
}
