//! Planned operator schedule groups.
//!
//! A [`PlannedGroup`] is the controller's output for one scheduling round:
//! which queries run, over which operator ranges, and the predicted
//! duration used for the QoS decision. It converts to the predictor's
//! [`GroupSpec`] for feature encoding and to kernel streams for execution.

use crate::query::Query;
use dnn_models::ModelLibrary;
use predictor::{GroupEntry, GroupSpec};

/// One query's share of a planned group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedEntry {
    /// Id of the query (resolved against the serving queue).
    pub query_id: u64,
    /// First operator to run (the query's current `next_op`).
    pub op_start: usize,
    /// One past the last operator to run.
    pub op_end: usize,
}

impl PlannedEntry {
    /// Number of operators scheduled.
    pub fn len(&self) -> usize {
        self.op_end - self.op_start
    }

    /// True when no operators are scheduled.
    pub fn is_empty(&self) -> bool {
        self.op_end == self.op_start
    }
}

/// The controller's decision for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedGroup {
    /// Entries, one per participating query.
    pub entries: Vec<PlannedEntry>,
    /// Predicted group duration (ms) from the latency model.
    pub predicted_ms: f64,
    /// How many batched prediction rounds the search used (for overhead
    /// accounting, Fig. 23).
    pub prediction_rounds: usize,
    /// Calibrated upper bound (ms) the round was certified against, when
    /// the controller ran in conformal-certification mode; `None` for
    /// mean + safety-margin rounds. Kept as an `Option` (not a NaN
    /// sentinel) so derived `PartialEq` stays total — the golden
    /// decision-stream tests compare whole decisions.
    pub upper_ms: Option<f64>,
}

impl PlannedGroup {
    /// Build the predictor's [`GroupSpec`] for this plan.
    ///
    /// `resolve` maps a query id to its [`Query`] (the queue lookup).
    pub fn to_spec<'a>(&self, resolve: impl Fn(u64) -> &'a Query, lib: &ModelLibrary) -> GroupSpec {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let q = resolve(e.query_id);
                GroupEntry {
                    model: q.model,
                    op_start: e.op_start,
                    op_end: e.op_end,
                    input: q.input,
                }
            })
            .collect();
        GroupSpec::new(entries, lib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelId, ModelLibrary, QueryInput};

    #[test]
    fn to_spec_resolves_queries() {
        let lib = ModelLibrary::new();
        let q1 = Query::new(10, ModelId::ResNet50, QueryInput::new(8, 1), 0.0, 50.0, 125);
        let q2 = Query::new(11, ModelId::Bert, QueryInput::new(4, 16), 0.0, 30.0, 173);
        let plan = PlannedGroup {
            entries: vec![
                PlannedEntry {
                    query_id: 10,
                    op_start: 0,
                    op_end: 125,
                },
                PlannedEntry {
                    query_id: 11,
                    op_start: 5,
                    op_end: 60,
                },
            ],
            predicted_ms: 12.0,
            prediction_rounds: 2,
            upper_ms: None,
        };
        let spec = plan.to_spec(|id| if id == 10 { &q1 } else { &q2 }, &lib);
        assert_eq!(spec.entries.len(), 2);
        assert_eq!(spec.entries[1].op_start, 5);
        assert_eq!(spec.entries[0].model, ModelId::ResNet50);
    }

    #[test]
    fn entry_len() {
        let e = PlannedEntry {
            query_id: 0,
            op_start: 3,
            op_end: 9,
        };
        assert_eq!(e.len(), 6);
        assert!(!e.is_empty());
    }
}
