//! Serving-loop invariant checking.
//!
//! The fault-injection layer deliberately breaks the assumptions the
//! scheduler plans under; the [`InvariantChecker`] asserts that whatever a
//! `FaultPlan` does, the *serving loop itself* stays sound:
//!
//! * **Exclusive occupancy** — executed groups never overlap in time: the
//!   GPU runs one group at a time, faults or not. A retired query can
//!   therefore never have occupied the GPU during another group's window.
//! * **Event-clock consistency** — each group's wall duration is at least
//!   its longest kernel stream (the engine's event clock can only be
//!   stretched by sync/save-restore overhead, never compressed).
//! * **Exactly-once accounting** — every issued query gets exactly one
//!   terminal record (completed, dropped, or timed out); a dropped query is
//!   never later reported completed; terminal timestamps never precede
//!   arrival.
//! * **Conservation** — at the end of a run,
//!   `completed + dropped + timed_out == issued`.
//!
//! The checker *collects* violations rather than panicking, so property
//! tests can assert `report().is_ok()` over randomly-drawn fault plans and
//! print every failure at once.

use abacus_metrics::QueryOutcome;
use std::collections::BTreeMap;

/// Comparison slack for time arithmetic, ms.
const EPS_MS: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Completed,
    Dropped,
    TimedOut,
}

/// Collects serving-loop invariant violations over one node run.
///
/// Lend it to a [`NodeServer`](crate::NodeServer) through its
/// [`NodeIo`](crate::NodeIo) (or pass it to `simulate_node_checked`);
/// [`NodeServer::drain`](crate::NodeServer::drain) calls [`finish`]. Then
/// inspect [`report`].
///
/// [`finish`]: InvariantChecker::finish
/// [`report`]: InvariantChecker::report
#[derive(Debug, Default)]
pub struct InvariantChecker {
    /// Issued query id → arrival time.
    issued: BTreeMap<u64, f64>,
    /// Terminal record per query id.
    terminal: BTreeMap<u64, Terminal>,
    /// End of the previous group's occupancy window, ms.
    last_group_end_ms: f64,
    /// Groups observed.
    rounds: u64,
    violations: Vec<String>,
    finished: bool,
}

impl InvariantChecker {
    /// Fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// A query entered the node's queue.
    pub fn on_issue(&mut self, id: u64, arrival_ms: f64) {
        if self.issued.insert(id, arrival_ms).is_some() {
            self.violations.push(format!("query {id} issued twice"));
        }
    }

    /// A query reached a terminal state (`Completed`, `Dropped`, or
    /// `TimedOut`) at `now_ms`.
    pub fn on_terminal(&mut self, id: u64, outcome: QueryOutcome, now_ms: f64) {
        let t = match outcome {
            QueryOutcome::Completed => Terminal::Completed,
            QueryOutcome::Dropped => Terminal::Dropped,
            QueryOutcome::TimedOut => Terminal::TimedOut,
        };
        match self.issued.get(&id) {
            None => self
                .violations
                .push(format!("query {id} retired ({t:?}) but was never issued")),
            Some(&arrival_ms) => {
                if now_ms < arrival_ms - EPS_MS {
                    self.violations.push(format!(
                        "query {id} retired at {now_ms} before its arrival at {arrival_ms}"
                    ));
                }
            }
        }
        if let Some(prev) = self.terminal.insert(id, t) {
            self.violations.push(format!(
                "query {id} retired twice: {prev:?} then {t:?} \
                 (a dropped query must never be reported completed)"
            ));
        }
    }

    /// An operator group executed, occupying the GPU over
    /// `[start_ms, start_ms + duration_ms)`; `stream_ms` are the group's
    /// per-stream kernel spans from the engine.
    pub fn on_group(&mut self, start_ms: f64, duration_ms: f64, stream_ms: &[f64]) {
        self.rounds += 1;
        let r = self.rounds;
        if !(start_ms.is_finite() && duration_ms.is_finite()) || duration_ms < 0.0 {
            self.violations.push(format!(
                "group {r}: non-finite or negative occupancy ({start_ms}, {duration_ms})"
            ));
            return;
        }
        if start_ms < self.last_group_end_ms - EPS_MS {
            self.violations.push(format!(
                "group {r} starts at {start_ms} inside the previous group's window \
                 (ends {}) — exclusive occupancy violated",
                self.last_group_end_ms
            ));
        }
        let longest = stream_ms.iter().copied().fold(0.0f64, f64::max);
        if duration_ms + EPS_MS < longest {
            self.violations.push(format!(
                "group {r}: wall duration {duration_ms} shorter than its longest \
                 kernel stream {longest} — engine event clock inconsistent"
            ));
        }
        self.last_group_end_ms = start_ms + duration_ms;
    }

    /// The serving loop failed to make progress (no drop, no group, no
    /// pending arrival) and had to force an eviction.
    pub fn on_stall(&mut self, now_ms: f64, queue_len: usize) {
        self.violations.push(format!(
            "scheduler made no progress at {now_ms} on a non-empty queue \
             ({queue_len} waiting) — livelock guard fired"
        ));
    }

    /// The scheduler dropped a query id that is not in the queue.
    pub fn on_unknown_drop(&mut self, id: u64, now_ms: f64) {
        self.violations
            .push(format!("scheduler dropped unknown query {id} at {now_ms}"));
    }

    /// Close the run: check conservation (`completed + dropped + timed_out
    /// == issued`) and that no issued query is left without a terminal
    /// record.
    pub fn finish(&mut self) {
        self.finished = true;
        for (&id, &arrival_ms) in &self.issued {
            if !self.terminal.contains_key(&id) {
                self.violations.push(format!(
                    "query {id} (arrived {arrival_ms}) was issued but never retired"
                ));
            }
        }
        let (mut completed, mut dropped, mut timed_out) = (0usize, 0usize, 0usize);
        for t in self.terminal.values() {
            match t {
                Terminal::Completed => completed += 1,
                Terminal::Dropped => dropped += 1,
                Terminal::TimedOut => timed_out += 1,
            }
        }
        if completed + dropped + timed_out != self.issued.len() {
            self.violations.push(format!(
                "conservation broken: {completed} completed + {dropped} dropped + \
                 {timed_out} timed out != {} issued",
                self.issued.len()
            ));
        }
    }

    /// Queries issued so far.
    pub fn issued(&self) -> usize {
        self.issued.len()
    }

    /// Groups observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// All violations collected so far, in detection order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// `Ok(())` when no invariant was violated, else every violation.
    ///
    /// Panics if called before [`InvariantChecker::finish`] — the
    /// conservation checks only run there, and a green report that skipped
    /// them would be vacuous.
    pub fn report(&self) -> Result<(), &[String]> {
        assert!(self.finished, "report() called before finish()");
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(&self.violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(mut c: InvariantChecker) -> InvariantChecker {
        c.finish();
        c
    }

    #[test]
    fn clean_run_reports_ok() {
        let mut c = InvariantChecker::new();
        c.on_issue(0, 0.0);
        c.on_issue(1, 1.0);
        c.on_group(2.0, 5.0, &[4.0, 3.0]);
        c.on_terminal(0, QueryOutcome::Completed, 7.0);
        c.on_group(7.5, 2.0, &[1.5]);
        c.on_terminal(1, QueryOutcome::Dropped, 9.5);
        let c = finished(c);
        assert_eq!(c.report(), Ok(()));
        assert_eq!(c.issued(), 2);
        assert_eq!(c.rounds(), 2);
    }

    #[test]
    fn overlapping_groups_are_flagged() {
        let mut c = InvariantChecker::new();
        c.on_group(0.0, 10.0, &[]);
        c.on_group(5.0, 3.0, &[]); // starts inside the first window
        let c = finished(c);
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("exclusive occupancy")));
    }

    #[test]
    fn group_shorter_than_longest_stream_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_group(0.0, 2.0, &[3.0, 1.0]);
        let c = finished(c);
        assert!(c.violations().iter().any(|v| v.contains("event clock")));
    }

    #[test]
    fn dropped_then_completed_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_issue(7, 0.0);
        c.on_terminal(7, QueryOutcome::Dropped, 1.0);
        c.on_terminal(7, QueryOutcome::Completed, 2.0);
        let c = finished(c);
        assert!(c.violations().iter().any(|v| v.contains("retired twice")));
    }

    #[test]
    fn unretired_query_breaks_conservation() {
        let mut c = InvariantChecker::new();
        c.on_issue(3, 0.0);
        let c = finished(c);
        assert!(c.report().is_err());
        assert!(c.violations().iter().any(|v| v.contains("never retired")));
    }

    #[test]
    fn retire_before_arrival_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_issue(1, 100.0);
        c.on_terminal(1, QueryOutcome::TimedOut, 50.0);
        let c = finished(c);
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("before its arrival")));
    }

    #[test]
    #[should_panic(expected = "before finish")]
    fn report_requires_finish() {
        let _ = InvariantChecker::new().report();
    }
}
