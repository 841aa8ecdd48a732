//! Forwarding wrappers the traced run puts between the program and its
//! predictor and scheduler.
//!
//! Every trait method that has a default of its own is forwarded rather
//! than left to that default (`Scheduler::decide` already defaults to the
//! forwarded `decide_into`). Left to its default, `predict_into` would run
//! one forward per row, which changes the forward counts and costs the
//! trace reports, and changes decisions for any model whose batched and
//! per-row paths round differently. A scheduler that never sees
//! `on_admit`/`on_retire` rebuilds its order index every round and, without
//! `on_group_complete`, charges different overheads. The traced run checks
//! that its records are bit-identical to the untraced run's.

use abacus_core::{DecisionStats, Query, RoundDecision, Scheduler};
use predictor::LatencyModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::tracer;

/// A [`LatencyModel`] that counts and times every forward of `inner`.
///
/// Calls may come from the program's worker threads, so the counters are
/// atomics (statistics only: `Relaxed` publishes nothing else).
pub struct CountingModel {
    inner: Arc<dyn LatencyModel>,
    span: &'static str,
    calls: AtomicU64,
    rows: AtomicU64,
    nanos: AtomicU64,
}

/// What a [`CountingModel`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ForwardStats {
    /// Forward calls.
    pub calls: u64,
    /// Feature rows across those calls.
    pub rows: u64,
    /// Host time inside the calls, summed over threads, s.
    pub secs: f64,
}

impl CountingModel {
    /// Wrap `inner`; calls on the traced thread are recorded as the
    /// aggregate span `span`.
    pub fn new(inner: Arc<dyn LatencyModel>, span: &'static str) -> Arc<Self> {
        Arc::new(Self {
            inner,
            span,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> ForwardStats {
        ForwardStats {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            secs: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }

    fn forward<R>(&self, rows: usize, f: impl FnOnce() -> R) -> R {
        let (r, ns) = tracer::call(self.span, f);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        r
    }
}

impl LatencyModel for CountingModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.forward(1, || self.inner.predict_one(x))
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.forward(n, || self.inner.predict_into(xs, n, out))
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.forward(xs.len(), || self.inner.predict_batch(xs))
    }

    fn predict_derated_into(&self, xs: &[f64], n: usize, derates: &[f64], out: &mut Vec<f64>) {
        self.forward(n, || self.inner.predict_derated_into(xs, n, derates, out))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`Scheduler`] that times every decision of `inner` and tallies what
/// it decided.
pub struct TimedScheduler<S> {
    inner: S,
    /// Host time of each `decide_into` call, ns, in call order.
    pub decide_ns: Vec<u64>,
    /// Decisions that planned a group.
    pub groups: u64,
    /// Query entries across those groups.
    pub entries: u64,
    /// Queries dropped across all decisions.
    pub drops: u64,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            decide_ns: Vec::new(),
            groups: 0,
            entries: 0,
            drops: 0,
        }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn decide_into(&mut self, now_ms: f64, queue: &[Query], out: &mut RoundDecision) {
        let ((), ns) = tracer::call("core.decide", || self.inner.decide_into(now_ms, queue, out));
        self.decide_ns.push(ns);
        self.drops += out.dropped.len() as u64;
        if let Some(g) = &out.group {
            self.groups += 1;
            self.entries += g.entries.len() as u64;
        }
    }

    fn on_admit(&mut self, q: &Query) {
        self.inner.on_admit(q)
    }

    fn on_retire(&mut self, q: &Query) {
        self.inner.on_retire(q)
    }

    fn on_group_complete(&mut self, duration_ms: f64) {
        self.inner.on_group_complete(duration_ms)
    }

    fn decision_stats(&self) -> DecisionStats {
        self.inner.decision_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
