//! Sequential baseline schedulers: FCFS, SJF, EDF (§2, §7.1).
//!
//! These are the per-GPU policies of Nexus and Clockwork: one query runs
//! exclusively at a time, so operator overlap never happens and latency is
//! trivially predictable. All three use the query-drop mechanism the paper
//! grants them for fairness: a queued query whose elapsed time already
//! exceeds its QoS target is dropped instead of executed.
//!
//! SJF additionally needs a duration estimate *before* dispatching, and —
//! unlike Abacus — cannot hide that prediction latency behind execution
//! (§7.2 discusses this as the reason SJF trails even FCFS/EDF).

use crate::group::{PlannedEntry, PlannedGroup};
use crate::query::Query;
use crate::scheduler::{RoundDecision, Scheduler};
use dnn_models::ModelLibrary;
use gpu_sim::GpuSpec;
use std::cmp::Ordering;
use std::sync::Arc;

/// Latency SJF pays per *queued query* per dispatch to estimate durations
/// (one un-batched predictor call each; §5.1 measures 0.1 ms per duration
/// prediction in real systems). Unlike
/// Abacus, SJF cannot hide this behind execution (§7.2), so at high load the
/// cost scales with queue depth and lands on the critical path.
pub const SJF_PREDICT_MS: f64 = 0.1;

/// Which sequential order the baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePolicy {
    /// First come, first served.
    Fcfs,
    /// Shortest (remaining solo) job first.
    Sjf,
    /// Earliest deadline first.
    Edf,
}

impl BaselinePolicy {
    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            BaselinePolicy::Fcfs => "FCFS",
            BaselinePolicy::Sjf => "SJF",
            BaselinePolicy::Edf => "EDF",
        }
    }
}

/// A sequential baseline scheduler.
#[derive(Debug, Clone)]
pub struct BaselineScheduler {
    policy: BaselinePolicy,
    lib: Arc<ModelLibrary>,
    gpu: GpuSpec,
    /// Planned-entry buffer parked here whenever a round plans no group;
    /// otherwise it cycles through the caller's decision (same scratch
    /// lifecycle as the Abacus controller's `DecisionScratch`).
    spare_entries: Vec<PlannedEntry>,
}

impl BaselineScheduler {
    /// Create a baseline of the given flavour for `gpu`.
    pub fn new(policy: BaselinePolicy, lib: Arc<ModelLibrary>, gpu: GpuSpec) -> Self {
        Self {
            policy,
            lib,
            gpu,
            spare_entries: Vec::new(),
        }
    }

    /// Estimated remaining solo latency of `q` (profiled solo run, as Nexus
    /// and Clockwork keep per-model latency profiles).
    fn remaining_solo_ms(&self, q: &Query) -> f64 {
        self.lib
            .graph(q.model, q.input)
            .solo_ms_range(&self.gpu, q.next_op, q.n_ops)
    }
}

impl Scheduler for BaselineScheduler {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        out.dropped.clear();
        out.overhead_ms = 0.0;
        let mut entries_buf = match out.group.take() {
            Some(g) => g.entries,
            None => std::mem::take(&mut self.spare_entries),
        };
        entries_buf.clear();
        // One pass: the query-drop mechanism evicts anything already past
        // its QoS target, the rest compete on the policy key. The former
        // per-policy `min_by` comparator never returned `Equal` (the id
        // tie-break is total over distinct ids), so its minimum is unique
        // and this strictly-less scan selects the identical query.
        let mut alive = 0usize;
        let mut chosen: Option<(f64, u64, usize)> = None;
        for (pos, q) in queue.iter().enumerate() {
            if q.headroom_ms(now_ms) < 0.0 {
                out.dropped.push(q.id);
                continue;
            }
            alive += 1;
            let key = match self.policy {
                BaselinePolicy::Fcfs => q.arrival_ms,
                BaselinePolicy::Sjf => self.remaining_solo_ms(q),
                BaselinePolicy::Edf => q.deadline_ms(),
            };
            let better = match chosen {
                None => true,
                Some((best_key, best_id, _)) => {
                    key.total_cmp(&best_key).then(q.id.cmp(&best_id)) == Ordering::Less
                }
            };
            if better {
                chosen = Some((key, q.id, pos));
            }
        }
        match chosen {
            Some((_, _, pos)) => {
                let q = &queue[pos];
                entries_buf.push(PlannedEntry {
                    query_id: q.id,
                    op_start: q.next_op,
                    op_end: q.n_ops,
                });
                out.group = Some(PlannedGroup {
                    entries: entries_buf,
                    predicted_ms: self.remaining_solo_ms(q),
                    prediction_rounds: usize::from(self.policy == BaselinePolicy::Sjf),
                    upper_ms: None,
                });
                if self.policy == BaselinePolicy::Sjf {
                    // SJF's duration estimation sits on the critical path:
                    // one prediction per queued candidate, every dispatch.
                    out.overhead_ms = alive as f64 * SJF_PREDICT_MS;
                }
            }
            None => self.spare_entries = entries_buf,
        }
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelId, QueryInput};

    fn mk(policy: BaselinePolicy) -> BaselineScheduler {
        BaselineScheduler::new(policy, Arc::new(ModelLibrary::new()), GpuSpec::a100())
    }

    fn query(id: u64, model: ModelId, arrival: f64, qos: f64) -> Query {
        let lib = ModelLibrary::new();
        let input = QueryInput::new(8, if model.is_nlp() { 16 } else { 1 });
        let n = lib.graph(model, input).len();
        Query::new(id, model, input, arrival, qos, n)
    }

    #[test]
    fn fcfs_picks_earliest_arrival() {
        let mut s = mk(BaselinePolicy::Fcfs);
        let queue = vec![
            query(1, ModelId::Vgg19, 5.0, 100.0),
            query(2, ModelId::ResNet50, 1.0, 100.0),
        ];
        let d = s.decide(10.0, &queue);
        assert_eq!(d.group.unwrap().entries[0].query_id, 2);
        assert_eq!(d.overhead_ms, 0.0);
    }

    #[test]
    fn sjf_picks_shortest_and_pays_prediction() {
        let mut s = mk(BaselinePolicy::Sjf);
        let queue = vec![
            query(1, ModelId::Vgg19, 0.0, 100.0),
            query(2, ModelId::ResNet50, 0.0, 100.0),
        ];
        let d = s.decide(1.0, &queue);
        let g = d.group.unwrap();
        assert_eq!(g.entries[0].query_id, 2); // ResNet50 is shorter
        assert_eq!(d.overhead_ms, 2.0 * SJF_PREDICT_MS);
        assert!(g.predicted_ms > 0.0);
    }

    #[test]
    fn edf_picks_earliest_deadline() {
        let mut s = mk(BaselinePolicy::Edf);
        let queue = vec![
            query(1, ModelId::ResNet50, 0.0, 80.0),   // deadline 80
            query(2, ModelId::ResNet101, 10.0, 40.0), // deadline 50
        ];
        let d = s.decide(15.0, &queue);
        assert_eq!(d.group.unwrap().entries[0].query_id, 2);
    }

    #[test]
    fn expired_queries_are_dropped() {
        let mut s = mk(BaselinePolicy::Fcfs);
        let queue = vec![
            query(1, ModelId::ResNet50, 0.0, 20.0), // expired at t=30
            query(2, ModelId::ResNet50, 25.0, 20.0),
        ];
        let d = s.decide(30.0, &queue);
        assert_eq!(d.dropped, vec![1]);
        assert_eq!(d.group.unwrap().entries[0].query_id, 2);
    }

    #[test]
    fn whole_remaining_query_is_scheduled() {
        let mut s = mk(BaselinePolicy::Edf);
        let mut q = query(1, ModelId::ResNet101, 0.0, 100.0);
        q.advance_to(100);
        let d = s.decide(1.0, &[q.clone()]);
        let e = d.group.unwrap().entries[0];
        assert_eq!(e.op_start, 100);
        assert_eq!(e.op_end, q.n_ops);
    }

    #[test]
    fn empty_queue_is_idle() {
        let mut s = mk(BaselinePolicy::Fcfs);
        let d = s.decide(0.0, &[]);
        assert!(d.group.is_none());
        assert!(d.dropped.is_empty());
    }
}
