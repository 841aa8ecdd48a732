//! The decision layer before the hot-path overhaul.
//!
//! [`plan_group`] is the multi-way search (§6.2–6.3) as a one-shot
//! function: fresh buffers per call, and every candidate and every level-2
//! probe encoded from scratch with `encode_features` (per-entry graph
//! lookups, no template patching). [`BaselineController`] is the headroom
//! controller on top of it: a fresh `Vec<&Query>` per round, a headroom
//! sort, expiry and per-model `retain` passes, and a `sorted.remove(0)`
//! drop loop, with the Eq. 3 pipelined overhead account. Neither shares
//! search or ordering code with `abacus_core`; they share only its result
//! types.

use abacus_core::{AbacusConfig, PlannedEntry, PlannedGroup, Query, RoundDecision, SearchResult};
use dnn_models::ModelLibrary;
use predictor::{encode_features, GroupEntry, LatencyModel, FEATURE_DIM, MAX_COLOCATED};
use std::sync::Arc;

/// The `GroupEntry` scheduling all remaining operators of `q`.
fn full_entry(q: &Query) -> GroupEntry {
    GroupEntry {
        model: q.model,
        op_start: q.next_op,
        op_end: q.n_ops,
        input: q.input,
    }
}

/// The multi-way search. `queries` must be sorted by headroom ascending
/// with pairwise-distinct models; `budget_ms` is the head's schedulable
/// headroom.
pub fn plan_group(
    queries: &[&Query],
    budget_ms: f64,
    model: &dyn LatencyModel,
    lib: &ModelLibrary,
    ways: usize,
) -> SearchResult {
    assert!(!queries.is_empty(), "need at least one query");
    assert!(ways >= 1, "need at least one search way");
    let mut rounds = 0;
    let mut entries: Vec<GroupEntry> = Vec::with_capacity(MAX_COLOCATED);
    let mut features = vec![0.0; ways.max(MAX_COLOCATED) * FEATURE_DIM];
    let mut preds = Vec::new();
    let row = |r: usize| r * FEATURE_DIM..(r + 1) * FEATURE_DIM;

    // Level 1: head alone, then head + 1 full, + 2 full, ... in batches of
    // `ways` predictions.
    let max_full = (queries.len() - 1).min(MAX_COLOCATED - 1);
    let mut level1 = [0.0f64; MAX_COLOCATED];
    let mut next = 0usize;
    while next <= max_full {
        let first = next;
        while next <= max_full && next - first < ways {
            entries.push(full_entry(queries[next]));
            encode_features(&entries, lib, &mut features[row(next - first)]);
            next += 1;
        }
        let rows = next - first;
        rounds += 1;
        model.predict_into(&features[..rows * FEATURE_DIM], rows, &mut preds);
        level1[first..next].copy_from_slice(&preds);
    }
    // A NaN prediction or budget is infeasible, not a NaN-duration plan.
    if level1[0].is_nan() || budget_ms.is_nan() || level1[0] > budget_ms {
        return SearchResult::Infeasible {
            prediction_rounds: rounds,
        };
    }
    let mut best_full = 0;
    let mut best_pred = level1[0];
    for (j, &p) in level1.iter().enumerate().take(max_full + 1).skip(1) {
        if p <= budget_ms {
            best_full = j;
            best_pred = p;
        } else {
            break;
        }
    }

    // Level 2: m-ary search over the operator count of the first query
    // that did not fit fully.
    let mut partial_ops = 0;
    if best_full < max_full {
        let next_q = queries[best_full + 1];
        entries.truncate(best_full + 1);
        entries.push(full_entry(next_q));
        let partial = entries.len() - 1;
        // c = 0 is feasible (it is `best_full`); c = rem is known infeasible.
        let mut lo = 0usize;
        let mut hi = next_q.remaining_ops();
        let mut lo_pred = best_pred;
        let mut probes: Vec<usize> = Vec::with_capacity(ways);
        while hi - lo > 1 {
            let span = hi - lo;
            probes.clear();
            probes.extend(
                (1..=ways)
                    .map(|i| lo + (span * i) / (ways + 1))
                    .filter(|&c| c > lo && c < hi),
            );
            probes.dedup();
            if probes.is_empty() {
                probes.push(lo + span / 2);
            }
            for (r, &c) in probes.iter().enumerate() {
                entries[partial].op_end = next_q.next_op + c;
                encode_features(&entries, lib, &mut features[row(r)]);
            }
            let rows = probes.len();
            rounds += 1;
            model.predict_into(&features[..rows * FEATURE_DIM], rows, &mut preds);
            // Narrow to the widest feasible probe.
            let mut new_lo = lo;
            let mut new_lo_pred = lo_pred;
            let mut new_hi = hi;
            for (&c, &p) in probes.iter().zip(&preds) {
                if p <= budget_ms {
                    if c > new_lo {
                        new_lo = c;
                        new_lo_pred = p;
                    }
                } else if c < new_hi {
                    new_hi = c;
                }
            }
            if new_lo == lo && new_hi == hi {
                break;
            }
            lo = new_lo;
            lo_pred = new_lo_pred;
            hi = new_hi.max(lo + 1);
        }
        partial_ops = lo;
        best_pred = lo_pred;
    }

    let mut planned: Vec<PlannedEntry> = queries[..=best_full]
        .iter()
        .map(|q| PlannedEntry {
            query_id: q.id,
            op_start: q.next_op,
            op_end: q.n_ops,
        })
        .collect();
    if partial_ops > 0 {
        let q = queries[best_full + 1];
        planned.push(PlannedEntry {
            query_id: q.id,
            op_start: q.next_op,
            op_end: q.next_op + partial_ops,
        });
    }
    SearchResult::Planned(PlannedGroup {
        entries: planned,
        predicted_ms: best_pred,
        prediction_rounds: rounds,
        upper_ms: None,
    })
}

/// The pre-overhaul headroom controller (see the module docs). Requires a
/// pinned `predict_round_ms` so the overhead account is host-independent.
pub struct BaselineController {
    model: Arc<dyn LatencyModel>,
    lib: Arc<ModelLibrary>,
    cfg: AbacusConfig,
    hide_window_ms: f64,
}

impl BaselineController {
    /// A controller over `model` with the live scheduler's configuration.
    pub fn new(model: Arc<dyn LatencyModel>, lib: Arc<ModelLibrary>, cfg: AbacusConfig) -> Self {
        assert!(
            cfg.predict_round_ms.is_some(),
            "reference runs pin the prediction-round latency"
        );
        Self {
            model,
            lib,
            cfg,
            hide_window_ms: 0.0,
        }
    }

    /// Decide one round over `queue` at `now_ms`.
    pub fn decide(&mut self, now_ms: f64, queue: &[Query]) -> RoundDecision {
        let mut dropped = Vec::new();
        // Sort by headroom ascending (Eq. 2); ties by id for determinism.
        let mut sorted: Vec<&Query> = queue.iter().collect();
        sorted.sort_by(|a, b| {
            a.headroom_ms(now_ms)
                .total_cmp(&b.headroom_ms(now_ms))
                .then(a.id.cmp(&b.id))
        });
        // Expired queries can never meet QoS: drop outright.
        sorted.retain(|q| {
            if q.headroom_ms(now_ms) < 0.0 {
                dropped.push(q.id);
                false
            } else {
                true
            }
        });
        // §6.1: only the least-headroom query of each model is eligible.
        let mut seen_models = 0u32;
        sorted.retain(|q| {
            let bit = 1u32 << q.model.index();
            if seen_models & bit != 0 {
                false
            } else {
                seen_models |= bit;
                true
            }
        });

        let mut prediction_rounds = 0usize;
        let mut planned: Option<PlannedGroup> = None;
        let margin_frac = self.cfg.margin_frac;
        while !sorted.is_empty() {
            let budget = (sorted[0].headroom_ms(now_ms) - self.cfg.margin_ms) / (1.0 + margin_frac);
            match plan_group(
                &sorted,
                budget,
                self.model.as_ref(),
                &self.lib,
                self.cfg.ways,
            ) {
                SearchResult::Planned(mut p) => {
                    prediction_rounds += p.prediction_rounds;
                    p.prediction_rounds = prediction_rounds;
                    planned = Some(p);
                    break;
                }
                SearchResult::Infeasible {
                    prediction_rounds: r,
                } => {
                    prediction_rounds += r;
                    dropped.push(sorted[0].id);
                    sorted.remove(0);
                }
            }
        }

        let search_ms = self.cfg.base_overhead_ms
            + prediction_rounds as f64 * self.cfg.predict_round_ms.unwrap();
        let overhead_ms = if self.cfg.pipelined {
            let charged = (search_ms - self.hide_window_ms).max(0.0);
            self.hide_window_ms = 0.0;
            charged
        } else {
            search_ms
        };
        RoundDecision {
            dropped,
            group: planned,
            overhead_ms,
        }
    }

    /// The group just run took `duration_ms`: the next round's search hides
    /// behind it (Eq. 3).
    pub fn on_group_complete(&mut self, duration_ms: f64) {
        self.hide_window_ms = duration_ms;
    }
}
