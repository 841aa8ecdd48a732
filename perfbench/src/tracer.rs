//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on the benchmark's own thread only: around each call
//! the benchmark makes into a layer ([`span`]), and around each call the
//! program makes into one of the benchmark's forwarding wrappers
//! ([`call`]). Wrapper calls are hot (one per scheduling decision or
//! predictor forward), so they are folded into one aggregate record per
//! (parent, name) instead of one record each; a layer's self time is then
//! its span minus the part its child spans cover. Calls on other threads
//! (the program's worker pool) record nothing here — the wrappers count
//! them with their own atomics.
//!
//! Nothing is recorded until [`enable`] is called, so the untraced run
//! pays one thread-local flag check per call site.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// One recorded span, or an aggregate of serial calls under one parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`; the layer is the crate the call went into.
    pub name: &'static str,
    /// Shared by every span of one (set, rate) cell or cluster run; 0 for
    /// spans outside any cell.
    pub cell: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start of the (first) call, ns since [`enable`].
    pub start_ns: u64,
    /// End of the (last) call, ns since [`enable`].
    pub end_ns: u64,
    /// True for an aggregate of wrapper calls.
    pub aggregate: bool,
    /// Calls folded into this record (1 for a plain span).
    pub calls: u64,
    /// Summed duration of those calls.
    pub total_ns: u64,
}

impl Span {
    /// The layer this span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Frame {
    span: usize,
    start_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    cell: u32,
    aggregates: HashMap<(Option<usize>, &'static str), usize>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, aggregate: bool) {
        let parent = self.stack.last().map(|f| f.span);
        let start_ns = self.now_ns();
        let span = if aggregate {
            let next = self.spans.len();
            let idx = *self.aggregates.entry((parent, name)).or_insert(next);
            if idx == next {
                self.spans.push(Span {
                    name,
                    cell: self.cell,
                    parent,
                    start_ns,
                    end_ns: start_ns,
                    aggregate: true,
                    calls: 0,
                    total_ns: 0,
                });
            }
            idx
        } else {
            self.spans.push(Span {
                name,
                cell: self.cell,
                parent,
                start_ns,
                end_ns: start_ns,
                aggregate: false,
                calls: 1,
                total_ns: 0,
            });
            self.spans.len() - 1
        };
        self.stack.push(Frame { span, start_ns });
    }

    fn close(&mut self) -> u64 {
        let frame = self.stack.pop().expect("close without open");
        let end_ns = self.now_ns();
        let took = end_ns - frame.start_ns;
        let s = &mut self.spans[frame.span];
        s.end_ns = end_ns;
        if s.aggregate {
            s.calls += 1;
            s.total_ns += took;
        } else {
            s.total_ns = took;
        }
        took
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread, clearing anything recorded before.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: 0,
            aggregates: HashMap::new(),
        })
    });
}

/// Stop recording and hand back every span.
///
/// # Panics
/// Panics if a span is still open.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| match t.borrow_mut().take() {
        Some(tr) => {
            assert!(tr.stack.is_empty(), "finish() inside an open span");
            tr.spans
        }
        None => Vec::new(),
    })
}

/// Tag the spans opened from now on with `cell`.
pub fn set_cell(cell: u32) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.cell = cell;
        }
    });
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    timed(name, false, f).0
}

/// Run `f` as one call of the aggregate `name` under the open span, and
/// return its duration in ns. The duration is measured whether or not
/// recording is on.
pub fn call<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    timed(name, true, f)
}

fn timed<R>(name: &'static str, aggregate: bool, f: impl FnOnce() -> R) -> (R, u64) {
    let on = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.open(name, aggregate);
            true
        }
        None => false,
    });
    if on {
        let r = f();
        let took = TRACER.with(|t| t.borrow_mut().as_mut().expect("tracer vanished").close());
        (r, took)
    } else if aggregate {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed().as_nanos() as u64)
    } else {
        (f(), 0)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Plain children cover the union of their
/// intervals (clipped to the parent's); aggregate children are serial calls
/// on the parent's own thread and cover their summed duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| &spans[k])
                .filter(|c| !c.aggregate)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let aggregated: u64 = kids
                .iter()
                .map(|&k| &spans[k])
                .filter(|c| c.aggregate)
                .map(|c| c.total_ns)
                .sum();
            s.total_ns.saturating_sub(covered + aggregated)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            cell: 0,
            parent,
            start_ns,
            end_ns,
            aggregate: false,
            calls: 1,
            total_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let mut agg = plain("core.decide", Some(0), 55, 80);
        agg.aggregate = true;
        agg.calls = 3;
        agg.total_ns = 15;
        let spans = vec![
            plain("wall", None, 0, 100),
            // Overlapping children count their union once: [10, 50).
            plain("a.x", Some(0), 10, 30),
            plain("a.y", Some(0), 20, 50),
            // A child running past its parent is clipped to [90, 100).
            plain("a.z", Some(0), 90, 120),
            agg,
            plain("a.w", Some(1), 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 10 - 15);
        assert_eq!(st[1], 20 - 6);
        assert_eq!(st[2], 30);
        assert_eq!(st[4], 15);
        assert_eq!(st[5], 6);
    }

    #[test]
    fn self_times_sum_to_root_duration_when_nested() {
        enable();
        span("wall", || {
            set_cell(7);
            span("serving.node", || {
                for _ in 0..3 {
                    call("core.decide", || {
                        call("predictor.forward", || std::hint::black_box(1 + 1));
                    });
                }
            });
            span("cluster.run", || ());
        });
        let spans = finish();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "wall",
                "serving.node",
                "core.decide",
                "predictor.forward",
                "cluster.run"
            ]
        );
        assert_eq!(spans[2].calls, 3);
        assert_eq!(spans[3].calls, 3);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[0].cell, spans[1].cell), (0, 7));
        let st = self_times(&spans);
        assert_eq!(st.iter().sum::<u64>(), spans[0].total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times_calls() {
        assert_eq!(span("a.b", || 5), 5);
        let (v, _ns) = call("a.c", || 6);
        assert_eq!(v, 6);
        assert!(finish().is_empty());
    }
}
